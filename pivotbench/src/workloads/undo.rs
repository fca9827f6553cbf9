//! `undo-any-order`: the paper's central operation. A large prepared
//! session undoes every transformation, one request at a time, in a fresh
//! seeded order each round, so most requests land mid-history and run the
//! Figure-4 cascade, region scan and safety re-checks. No opportunity scan
//! runs.
//!
//! Closed loop, one thread. Oracle: after every round the program equals
//! the session's original and the session is internally consistent.

use super::{mix, timed_setup, vm_hwm_kb, Meter, Outcome, Params};
use crate::layers::{elapsed_ns, fork_for_replay, replay_undo, Trace};
use pivot_lang::equiv::programs_equal;
use pivot_undo::{Strategy, XformState};
use pivot_workload::{prepare, WorkloadCfg};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::time::Instant;

/// `op_tail_us` is the 90th percentile. Over 20 runs on a shared 2-vCPU
/// VM the spread of 10 runs was typically 7% for it and 16% for the 80th.
const TAIL_Q: f64 = 0.90;

pub fn run(p: &Params) -> Result<Outcome, String> {
    let cfg = WorkloadCfg {
        fragments: p.scale.undo_fragments,
        noise_ratio: 0.2,
        kinds: None,
        figure1_chains: p.scale.undo_chains,
    };
    let mut out = Outcome {
        tail_q: TAIL_Q,
        ..Default::default()
    };
    let prepared = timed_setup(&mut out, p.scale.setup_min_ns, || {
        Ok(prepare(p.seed, &cfg, p.scale.undo_applied))
    })?;
    let mut session = prepared.session;
    let base = session.checkpoint();
    let mut trace = p.trace.then(Trace::default);
    let mut meter = Meter::start(p);
    let mut round = 0u64;
    while !meter.done() {
        session.rollback(base.clone());
        session.explanations.clear();
        let mut order = prepared.applied.clone();
        order.shuffle(&mut StdRng::seed_from_u64(mix(p.seed, round)));
        // The traced run replays every other round; the rounds between are
        // the baseline of `trace.overhead`.
        let replaying = trace.is_some() && round.is_multiple_of(2);
        for id in order {
            let active = session
                .history
                .get(id)
                .is_ok_and(|r| r.state == XformState::Active);
            if !active {
                continue; // removed by an earlier cascade this round
            }
            let pre = replaying.then(|| fork_for_replay(&session));
            let t0 = Instant::now();
            let res = session.undo(id, Strategy::Regional);
            let ns = elapsed_ns(t0);
            out.attempted += 1;
            let report = match res {
                Ok(report) => report,
                Err(e) => {
                    out.fail(format!("undo {id}: {e}"));
                    continue;
                }
            };
            meter.record(t0, ns, true, true);
            if let Some(t) = trace.as_mut() {
                match pre {
                    Some(mut fork) => {
                        t.traced_ops.push(ns);
                        if let Err(e) = replay_undo(t, &mut fork, &report.undone) {
                            t.replay_error(e);
                        }
                    }
                    None => t.untraced_ops.push(ns),
                }
            }
        }
        if !programs_equal(&session.prog, &session.original) {
            out.wrong.push(format!(
                "round {round}: undoing every transformation did not restore the original"
            ));
        }
        let violations = session.consistency_violations();
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
