//! # pivot-workload
//!
//! Seeded synthetic workloads for the PIVOT undo reproduction: program
//! generators (assembled from per-transformation [`fragments`]),
//! transformation-sequence drivers, and edit generators. Everything is
//! deterministic under a seed, so benches and property tests are
//! reproducible.

#![warn(missing_docs)]

pub mod auditcheck;
pub mod cowcheck;
pub mod faults;
pub mod fragments;
pub mod incrcheck;
pub mod parcheck;
pub mod search;
pub mod searchcheck;
pub mod servecheck;
pub mod tempdir;
pub mod witnesses;

use pivot_lang::builder::ProgramBuilder;
use pivot_lang::Program;
use pivot_undo::engine::Session;
use pivot_undo::{XformId, XformKind, ALL_KINDS};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Workload shape.
#[derive(Clone, Debug)]
pub struct WorkloadCfg {
    /// Number of transformation-enabling fragments.
    pub fragments: usize,
    /// Noise (inert) fragments interleaved per enabling fragment.
    pub noise_ratio: f64,
    /// Restrict the fragment mix to these kinds (None = all ten).
    pub kinds: Option<Vec<XformKind>>,
    /// Include Figure 1 interaction fragments (chains of CSE/CTP/INX/ICM).
    pub figure1_chains: usize,
}

impl Default for WorkloadCfg {
    fn default() -> Self {
        WorkloadCfg {
            fragments: 8,
            noise_ratio: 0.5,
            kinds: None,
            figure1_chains: 0,
        }
    }
}

/// Generate a seeded program.
pub fn gen_program(seed: u64, cfg: &WorkloadCfg) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();
    let kinds: Vec<XformKind> = cfg.kinds.clone().unwrap_or_else(|| ALL_KINDS.to_vec());
    let mut tag = 0usize;
    for f in 0..cfg.fragments {
        let kind = kinds[f % kinds.len()];
        fragments::emit(&mut b, kind, tag, &mut rng);
        tag += 1;
        if rng.gen_bool(cfg.noise_ratio.clamp(0.0, 1.0)) {
            fragments::noise(&mut b, tag, &mut rng);
            tag += 1;
        }
    }
    for _ in 0..cfg.figure1_chains {
        fragments::figure1(&mut b, tag);
        tag += 1;
    }
    b.finish()
}

/// A generated session with its applied transformation ids.
pub struct Prepared {
    /// The session, with transformations applied.
    pub session: Session,
    /// Ids in application order.
    pub applied: Vec<XformId>,
}

/// Build a session and greedily apply up to `max` transformations,
/// round-robin over kinds, deterministically under `seed`.
pub fn prepare(seed: u64, cfg: &WorkloadCfg, max: usize) -> Prepared {
    prepare_in_mode(seed, cfg, max, pivot_undo::RepMode::Batch)
}

/// [`prepare`] with an explicit representation-refresh mode, selected
/// *before* the first transformation so incremental (or checked) updates
/// cover the whole build-up, not just later operations.
pub fn prepare_in_mode(
    seed: u64,
    cfg: &WorkloadCfg,
    max: usize,
    mode: pivot_undo::RepMode,
) -> Prepared {
    prepare_with_pool(seed, cfg, max, mode, pivot_undo::Pool::from_env())
}

/// [`prepare_in_mode`] with an explicit worker pool, installed *before* the
/// first transformation so the parallel kernels cover the whole build-up.
/// The prepared session keeps the pool.
pub fn prepare_with_pool(
    seed: u64,
    cfg: &WorkloadCfg,
    max: usize,
    mode: pivot_undo::RepMode,
    pool: pivot_undo::Pool,
) -> Prepared {
    let prog = gen_program(seed, cfg);
    let mut session = Session::new(prog);
    session.set_pool(pool);
    session.set_rep_mode(mode);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9);
    let mut applied = Vec::new();
    let mut kinds: Vec<XformKind> = cfg.kinds.clone().unwrap_or_else(|| ALL_KINDS.to_vec());
    loop {
        if applied.len() >= max {
            break;
        }
        kinds.shuffle(&mut rng);
        let mut progressed = false;
        for &k in &kinds {
            if applied.len() >= max {
                break;
            }
            if let Some(id) = session.apply_kind(k) {
                applied.push(id);
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    Prepared { session, applied }
}

/// Generate a random edit against the current program. When an applied
/// def-use rewrite (CTP/CPP/CSE) exists, the edit inserts a definition of
/// one of its watched symbols directly after the defining statement —
/// landing on the def-use path and invalidating that transformation (the
/// paper's edit scenario). Otherwise falls back to inserting a definition
/// of some used symbol at a random top-level position.
pub fn gen_edit(session: &Session, seed: u64) -> pivot_undo::Edit {
    let mut rng = StdRng::seed_from_u64(seed);
    let prog = &session.prog;
    // Prefer an aimed edit at one of the applied rewrites.
    let rewrites: Vec<(pivot_lang::StmtId, pivot_lang::Sym)> = session
        .history
        .active()
        .filter_map(|r| match &r.params {
            pivot_undo::XformParams::Ctp { def_stmt, var, .. } => Some((*def_stmt, *var)),
            pivot_undo::XformParams::Cpp { def_stmt, to, .. } => Some((*def_stmt, *to)),
            pivot_undo::XformParams::Cse {
                def_stmt,
                operand_syms,
                ..
            } => operand_syms.first().map(|&s| (*def_stmt, s)),
            _ => None,
        })
        .filter(|(d, _)| prog.is_live(*d) && prog.stmt(*d).parent == Some(pivot_lang::Parent::Root))
        .collect();
    if !rewrites.is_empty() {
        let (def, sym) = rewrites[rng.gen_range(0..rewrites.len())];
        return pivot_undo::Edit::Insert {
            src: format!("{} = {}\n", prog.symbols.name(sym), rng.gen_range(0..100)),
            at: pivot_lang::Loc::after(pivot_lang::Parent::Root, def),
        };
    }
    // Fallback: a definition of some used scalar at a random position.
    let mut used: Vec<pivot_lang::Sym> = Vec::new();
    for s in prog.attached_stmts() {
        let du = pivot_ir::access::stmt_def_use(prog, s);
        used.extend(du.use_scalars);
    }
    used.sort_unstable();
    used.dedup();
    let name = if used.is_empty() {
        "fresh_edit_var".to_owned()
    } else {
        let pick = used[rng.gen_range(0..used.len())];
        prog.symbols.name(pick).to_owned()
    };
    let body = prog.body.clone();
    let at = if body.is_empty() || rng.gen_bool(0.3) {
        pivot_lang::Loc::root_start()
    } else {
        let anchor = body[rng.gen_range(0..body.len())];
        pivot_lang::Loc::after(pivot_lang::Parent::Root, anchor)
    };
    pivot_undo::Edit::Insert {
        src: format!("{name} = {}\n", rng.gen_range(0..100)),
        at,
    }
}

/// Random input stream for the interpreter (generated programs `read` at
/// most a few dozen values).
pub fn gen_inputs(seed: u64, len: usize) -> Vec<i64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| rng.gen_range(-100..100)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_lang::equiv::programs_equal;
    use pivot_lang::interp;
    use pivot_undo::Strategy;

    #[test]
    fn generation_is_deterministic() {
        let cfg = WorkloadCfg::default();
        let a = gen_program(42, &cfg);
        let b = gen_program(42, &cfg);
        assert!(programs_equal(&a, &b));
        let c = gen_program(43, &cfg);
        // Different seed differs in constants (overwhelmingly likely).
        assert!(!programs_equal(&a, &c));
    }

    #[test]
    fn prepare_applies_transformations() {
        let cfg = WorkloadCfg {
            fragments: 10,
            ..Default::default()
        };
        let prepared = prepare(5, &cfg, 8);
        assert!(
            prepared.applied.len() >= 6,
            "got {}",
            prepared.applied.len()
        );
        prepared.session.assert_consistent();
    }

    #[test]
    fn transformations_preserve_semantics_on_workloads() {
        for seed in 0..6 {
            let cfg = WorkloadCfg {
                fragments: 8,
                ..Default::default()
            };
            let prepared = prepare(seed, &cfg, 10);
            let inputs = gen_inputs(seed, 64);
            let before = interp::run_default(&prepared.session.original, &inputs).unwrap();
            let after = interp::run_default(&prepared.session.prog, &inputs).unwrap();
            assert_eq!(before, after, "seed {seed} broke semantics");
        }
    }

    #[test]
    fn undo_roundtrip_on_workloads() {
        for seed in 0..4 {
            let cfg = WorkloadCfg {
                fragments: 6,
                figure1_chains: 1,
                ..Default::default()
            };
            let mut prepared = prepare(seed, &cfg, 12);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut order = prepared.applied.clone();
            order.shuffle(&mut rng);
            for id in order {
                match prepared.session.undo(id, Strategy::Regional) {
                    Ok(_) | Err(pivot_undo::UndoError::AlreadyUndone(_)) => {}
                    Err(e) => panic!("seed {seed}: {e}"),
                }
            }
            assert!(
                programs_equal(&prepared.session.prog, &prepared.session.original),
                "seed {seed} failed round-trip:\n{}",
                prepared.session.source()
            );
            prepared.session.assert_consistent();
        }
    }

    #[test]
    fn gen_edit_is_applicable() {
        let cfg = WorkloadCfg::default();
        let mut prepared = prepare(9, &cfg, 6);
        let edit = gen_edit(&prepared.session, 1);
        prepared.session.edit(&edit).unwrap();
        prepared.session.prog.assert_consistent();
    }
}
