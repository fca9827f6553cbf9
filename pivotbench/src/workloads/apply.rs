//! `apply-sweep`: the apply path the CLI and the daemon run, `find(kind)`
//! then `apply(first)`. Each round starts a fresh program and applies over
//! seeded kind shuffles until `apply_cap` records are active or no kind
//! applies. The cap is required: LUR and SMI keep creating new
//! opportunities, so an uncapped round never ends. Opportunity scan and
//! forward refresh do the work; region scan and safety re-checks never run.
//!
//! Closed loop, one thread. Several programs per run, cycled round by
//! round, so one seed's program shape does not set the numbers. Oracle:
//! after every round the interpreter's output on two seeded input sets
//! equals the original program's, and the session is consistent.

use super::{mix, timed_setup, vm_hwm_kb, Meter, Outcome, Params};
use crate::layers::{elapsed_ns, fork_for_replay, replay_apply, Trace};
use pivot_lang::interp;
use pivot_undo::engine::Session;
use pivot_undo::{Checkpoint, ALL_KINDS};
use pivot_workload::{gen_inputs, gen_program, WorkloadCfg};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// `op_tail_us` is the 90th percentile. Over 20 runs on a shared 2-vCPU
/// VM the spread of 10 runs was typically 7% for it and 14% for the 75th.
const TAIL_Q: f64 = 0.90;

struct Subject {
    session: Session,
    fresh: Checkpoint,
    inputs: Vec<Vec<i64>>,
    expected: Vec<Vec<i64>>,
}

/// The set-up: one fresh session per program.
fn sessions(p: &Params) -> Vec<(Session, Checkpoint)> {
    let cfg = WorkloadCfg {
        fragments: p.scale.apply_fragments,
        noise_ratio: 0.3,
        kinds: None,
        figure1_chains: p.scale.apply_chains,
    };
    (0..p.scale.apply_programs as u64)
        .map(|k| {
            let session = Session::new(gen_program(mix(p.seed, k), &cfg));
            let fresh = session.checkpoint();
            (session, fresh)
        })
        .collect()
}

/// Each program's oracle: its output on two seeded input sets.
fn subject(p: &Params, k: u64, (session, fresh): (Session, Checkpoint)) -> Result<Subject, String> {
    let inputs: Vec<Vec<i64>> = (0..2)
        .map(|i| gen_inputs(mix(mix(p.seed, k), 100 + i), 64))
        .collect();
    let expected = inputs
        .iter()
        .map(|inp| interp::run_default(&session.original, inp))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("program {k} does not run: {e}"))?;
    Ok(Subject {
        session,
        fresh,
        inputs,
        expected,
    })
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome {
        tail_q: TAIL_Q,
        ..Default::default()
    };
    let mut subjects = timed_setup(&mut out, p.scale.setup_min_ns, || Ok(sessions(p)))?
        .into_iter()
        .zip(0..)
        .map(|(s, k)| subject(p, k, s))
        .collect::<Result<Vec<_>, _>>()?;
    let mut trace = p.trace.then(Trace::default);
    let mut meter = Meter::start(p);
    let mut kinds = ALL_KINDS.to_vec();
    let mut round = 0u64;
    while !meter.done() {
        let subj = &mut subjects[round as usize % p.scale.apply_programs];
        let s = &mut subj.session;
        s.rollback(subj.fresh.clone());
        let mut rng = StdRng::seed_from_u64(mix(p.seed, 1_000 + round));
        // The traced run replays every other pass over the programs; the
        // passes between are the baseline of `trace.overhead`.
        let pass = round / p.scale.apply_programs as u64;
        let replaying = trace.is_some() && pass.is_multiple_of(2);
        'round: loop {
            kinds.shuffle(&mut rng);
            let mut progressed = false;
            for &kind in &kinds {
                if s.history.active_len() >= p.scale.apply_cap {
                    break 'round;
                }
                let pre = replaying.then(|| fork_for_replay(s));
                let t0 = Instant::now();
                let opps = s.find(kind);
                let Some(opp) = opps.first() else {
                    // A probe, not a request: the caller learns the kind
                    // has nothing to apply.
                    if let Some(t) = trace.as_mut() {
                        t.counts.finds += 1;
                    }
                    continue;
                };
                let res = s.apply(opp);
                let ns = elapsed_ns(t0);
                out.attempted += 1;
                if let Err(e) = res {
                    out.fail(format!("apply {kind}: {e}"));
                    continue;
                }
                progressed = true;
                meter.record(t0, ns, true, true);
                if let Some(t) = trace.as_mut() {
                    match pre {
                        Some(mut fork) => {
                            t.traced_ops.push(ns);
                            if let Err(e) = replay_apply(t, &mut fork, kind, 0, true) {
                                t.replay_error(e);
                            }
                        }
                        None => t.untraced_ops.push(ns),
                    }
                }
            }
            if !progressed {
                break;
            }
        }
        for (inp, want) in subj.inputs.iter().zip(&subj.expected) {
            match interp::run_default(&s.prog, inp) {
                Ok(got) if &got == want => {}
                Ok(_) => out
                    .wrong
                    .push(format!("round {round}: output differs from the original's")),
                Err(e) => out.wrong.push(format!("round {round}: program fails: {e}")),
            }
        }
        let violations = s.consistency_violations();
        if !violations.is_empty() {
            out.wrong.push(format!(
                "round {round}: inconsistent session: {violations:?}"
            ));
        }
        round += 1;
    }
    out.windows = meter.finish();
    out.peak_rss_kb = vm_hwm_kb(None)?;
    out.trace = trace;
    Ok(out)
}
