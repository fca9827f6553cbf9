//! `search-reject`: the stochastic search's propose/score/reject loop,
//! driven one `step()` at a time and timed from outside. The reject runs
//! the same undo code as `undo-any-order`, differently: it only ever
//! removes the newest record, so there is never a cascade or a later
//! candidate, and interpreter scoring (which no other workload runs) is a
//! large share of each move.
//!
//! Closed loop, one thread. A run chains searches over fresh seeded
//! programs until the time is up. The latency is that of reject moves;
//! `ops_per_s` counts only moves that found an opportunity, since most
//! draws of a converged walk find none and cost almost nothing. Oracle:
//! no candidate's output diverged, and over its first steps the first
//! search made the same moves, reached the same cost and kept the same
//! transformations as a fork-and-discard search, which never undoes.
//! Source text is not compared: an undone SMI or LUR leaves its fresh
//! loop variable interned, so a later one is named `i_s_1` where the
//! fork-and-discard walk says `i_s`.

use super::{mix, timed_setup, vm_hwm_kb, Meter, Outcome, Params};
use crate::layers::{elapsed_ns, fork_for_replay, replay_apply, replay_undo, Trace};
use pivot_lang::interp::{self, Limits};
use pivot_undo::engine::Session;
use pivot_undo::{XformKind, ALL_KINDS};
use pivot_workload::search::{
    search_inputs, search_session, RejectMode, Search, SearchCfg, StepKind,
};
use std::time::Instant;

/// `op_tail_us` is the 80th percentile. Over 20 runs on a shared 2-vCPU
/// VM the spread of 10 runs was typically 7% for it, and 12% (20% at
/// worst) for the 90th.
const TAIL_Q: f64 = 0.80;

/// Steps of the first search checked against the fork-and-discard oracle.
const ORACLE_STEPS: u64 = 4_000;

/// The traced run replays alternate blocks of this many steps.
const TRACE_BLOCK: u64 = 1_000;

/// One search of the chain: its configuration and scoring inputs.
struct Walk {
    cfg: SearchCfg,
    inputs: Vec<Vec<i64>>,
}

impl Walk {
    fn new(p: &Params, index: u64) -> Walk {
        let cfg = SearchCfg {
            seed: mix(p.seed, index),
            moves: p.scale.search_moves,
            fragments: p.scale.search_fragments,
            ..Default::default()
        };
        Walk {
            inputs: search_inputs(&cfg),
            cfg,
        }
    }

    fn start(&self, mode: RejectMode) -> Search {
        Search::new(search_session(&self.cfg), self.cfg.clone(), mode)
    }
}

/// What the oracle compares: the move log, the cost, and the kinds of the
/// active transformations in order.
fn oracle_view(search: &Search) -> (Vec<String>, u64, Vec<XformKind>) {
    (
        search.outcome().move_log.clone(),
        search.cur_cost(),
        search.session().history.active().map(|r| r.kind).collect(),
    )
}

/// The drawn kind, the opportunity index and the verdict of a step's
/// move-log line (`"{m} {KIND} opp {pick}/{n} cost {c} {verdict}"`,
/// `"{m} {KIND} opp {pick}/{n} apply-err"` or `"{m} {KIND} no-opp"`).
fn parse_move(line: &str) -> Option<(XformKind, usize, &str)> {
    let mut it = line.split_whitespace();
    let _m = it.next()?;
    let kind = XformKind::from_abbrev(it.next()?)?;
    match it.next()? {
        "no-opp" => Some((kind, 0, "no-opp")),
        "opp" => {
            let pick = it.next()?.split('/').next()?.parse().ok()?;
            Some((kind, pick, line.split_whitespace().last()?))
        }
        _ => None,
    }
}

/// The line of the last step, and whether a restart followed it (a
/// restart appends a line of its own).
fn last_move(search: &Search) -> Option<(&str, bool)> {
    let log = &search.outcome().move_log;
    let last = log.last()?;
    if last.contains(" restart ") {
        Some((log.get(log.len().checked_sub(2)?)?.as_str(), true))
    } else {
        Some((last.as_str(), false))
    }
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    let mut out = Outcome {
        tail_q: TAIL_Q,
        ..Default::default()
    };
    let mut index = 0u64;
    let mut walk = Walk::new(p, index);
    let mut search = timed_setup(&mut out, p.scale.setup_min_ns, || {
        Ok(walk.start(RejectMode::UndoReject))
    })?;
    let mut trace = p.trace.then(Trace::default);
    // Kinds the search has scanned since the program last changed: it
    // caches those scans, so a step scans only a kind not in here.
    let mut scanned = [false; ALL_KINDS.len()];
    let mut steps = 0u64; // of the current search
    let mut oracle_point = None;
    let mut meter = Meter::start(p);
    loop {
        let replaying = trace.is_some() && (steps / TRACE_BLOCK).is_multiple_of(2);
        let pre = replaying.then(|| fork_for_replay(search.session()));
        let best_before = search.outcome().best_cost;
        let t0 = Instant::now();
        let step = search.step();
        let ns = elapsed_ns(t0);
        let over = matches!(step, StepKind::Budget | StepKind::Plateaued);
        if !over {
            steps += 1;
            let opportunity = step != StepKind::NoOpportunity;
            meter.record(t0, ns, opportunity, step == StepKind::Rejected);
            let Some((line, restarted)) = last_move(&search) else {
                return Err("search step left no move-log line".into());
            };
            let (kind, pick, verdict) =
                parse_move(line).ok_or_else(|| format!("unparsed move-log line `{line}`"))?;
            let was_scanned = std::mem::replace(&mut scanned[kind.index()], true);
            if let Some(t) = trace.as_mut() {
                t.counts.moves += 1;
                t.counts.finds += u64::from(!was_scanned);
            }
            if step == StepKind::NoOpportunity {
                if let Some(t) = trace.as_mut() {
                    t.counts.noopp_moves += 1;
                }
            } else {
                scanned = [false; ALL_KINDS.len()];
                out.attempted += 1;
                if let Some(t) = trace.as_mut() {
                    t.counts.opp_moves += 1;
                    t.counts.accepted += u64::from(matches!(
                        step,
                        StepKind::Accepted | StepKind::AcceptedUphill
                    ));
                    t.counts.rejects += u64::from(step == StepKind::Rejected);
                    match pre {
                        Some(mut fork) => {
                            t.traced_ops.push(ns);
                            let improved = search.outcome().best_cost < best_before;
                            let replayed = replay_move(
                                t,
                                &mut fork,
                                &walk,
                                (kind, pick, verdict),
                                !was_scanned,
                                improved,
                            );
                            if let Err(e) = replayed {
                                t.replay_error(e);
                            }
                        }
                        None => t.untraced_ops.push(ns),
                    }
                }
            }
            if restarted {
                scanned = [false; ALL_KINDS.len()];
            }
            if index == 0 && steps == ORACLE_STEPS {
                oracle_point = Some((steps, oracle_view(&search)));
            }
        }
        let done = meter.done();
        if over || done {
            finish_search(&mut out, trace.as_mut(), &search, index);
            if index == 0 && oracle_point.is_none() {
                oracle_point = Some((steps, oracle_view(&search)));
            }
            if done {
                break;
            }
            index += 1;
            walk = Walk::new(p, index);
            search = walk.start(RejectMode::UndoReject);
            scanned = [false; ALL_KINDS.len()];
            steps = 0;
        }
    }
    if let Some((n, seen)) = oracle_point {
        let mut oracle = Walk::new(p, 0).start(RejectMode::ForkOracle);
        for _ in 0..n {
            oracle.step();
        }
        let want = oracle_view(&oracle);
        if seen != want {
            let at = seen.0.iter().zip(&want.0).position(|(a, b)| a != b);
            out.wrong.push(format!(
                "search 0 departs from the fork-and-discard walk within {n} steps \
                 (first differing move-log line: {at:?}; cost {} vs {})",
                seen.1, want.1
            ));
        }
    }
    out.windows = meter.finish();
    out.peak_rss_kb = vm_hwm_kb(None)?;
    out.trace = trace;
    Ok(out)
}

fn finish_search(out: &mut Outcome, trace: Option<&mut Trace>, search: &Search, index: u64) {
    let o = search.outcome();
    if o.output_divergences > 0 {
        out.wrong.push(format!(
            "search {index}: {} candidates changed the program's output",
            o.output_divergences
        ));
    }
    // An apply error is an opportunity the engine found and then refused.
    for _ in 0..o.apply_errors {
        out.fail(format!("search {index}: apply refused a found opportunity"));
    }
    if let Some(t) = trace {
        t.counts.reject_fallbacks += o.rollback_rejects;
    }
}

/// Replay one opportunity move on `s`, the fork of the pre-step session:
/// the search's own checkpoint, the apply, the interpreter scoring and,
/// for a reject, the undo of the new record.
fn replay_move(
    t: &mut Trace,
    s: &mut Session,
    walk: &Walk,
    (kind, pick, verdict): (XformKind, usize, &str),
    scan: bool,
    improved: bool,
) -> Result<(), String> {
    t.time("core.txn.checkpoint", || s.checkpoint());
    let applied = replay_apply(t, s, kind, pick, scan);
    if verdict == "apply-err" {
        return match applied {
            Err(_) => Ok(()),
            Ok(_) => Err(format!("replayed {kind} applied, the search's was refused")),
        };
    }
    let id = applied?;
    let limits = Limits {
        fuel: walk.cfg.fuel,
    };
    t.time("lang.interp", || {
        for input in &walk.inputs {
            let _ = interp::run_counted(&s.prog, input, limits);
        }
    });
    if verdict.starts_with("reject") {
        replay_undo(t, s, &[id])
    } else {
        if improved {
            // A new best is held as the restart point.
            t.time("core.txn.checkpoint", || s.checkpoint());
        }
        Ok(())
    }
}
