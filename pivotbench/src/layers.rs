//! Per-layer timing from outside the program.
//!
//! The traced run forks the session before an operation (a copy-on-write
//! clone, untimed), lets the real operation run and be timed exactly as in
//! the untraced run, and then replays the operation on the fork by calling
//! each layer's public function in engine order, timing every call as one
//! span. The replay sits outside the operation's timed window, so it can
//! only perturb the measurement through the caches; `trace.overhead`
//! reports that effect.
//!
//! Layer names follow the repository's crates: `lang` (pivot-lang), `ir`
//! (pivot-ir), `core` (pivot-undo), `serve` (pivot-serve). Leaf layers do
//! not overlap, so their sum over an operation is comparable with the
//! operation's end-to-end time (`trace.coverage`). The `ir.*` analyses
//! below `ir.twolevel` are timed again on the same program after each
//! refresh, as a breakdown of `ir.twolevel`, and are not leaves.

use pivot_ir::{cfg, chains, dom, live, reaching};
use pivot_undo::engine::Session;
use pivot_undo::revers::check_reversible;
use pivot_undo::{
    catalog, delta, interact, region, safety, ActionKind, ActionLog, XformId, XformKind, XformState,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Leaf layers, in engine order.
pub const LEAVES: [&str; 13] = [
    "core.txn.checkpoint",
    "core.catalog.find",
    "core.catalog.apply",
    "core.revers",
    "core.actions.inverse",
    "ir.twolevel",
    "ir.depend_pdg",
    "core.region",
    "core.safety",
    "lang.interp",
    "core.journal",
    "core.journal.compact",
    "serve.daemon",
];

/// The analyses `ir.twolevel` builds eagerly, timed one by one.
pub const IR_BREAKDOWN: [&str; 5] = ["ir.cfg", "ir.dom", "ir.reaching", "ir.live", "ir.chains"];

/// Layers every workload runs, so their latency is never absent.
pub const TIMED_EVERYWHERE: [&str; 7] = [
    "core.txn.checkpoint",
    "ir.twolevel",
    "ir.cfg",
    "ir.dom",
    "ir.reaching",
    "ir.live",
    "ir.chains",
];

/// Counts taken where the work happens, for the per-layer ratios.
#[derive(Default, Debug)]
pub struct Counts {
    pub finds: u64,
    pub find_hits: u64,
    pub candidates: u64,
    pub in_scope: u64,
    pub safety_checks: u64,
    pub unsafe_found: u64,
    pub undos: u64,
    pub removed: u64,
    pub moves: u64,
    pub noopp_moves: u64,
    pub opp_moves: u64,
    pub accepted: u64,
    pub rejects: u64,
    pub reject_fallbacks: u64,
    pub sends: u64,
    pub late_sends: u64,
}

/// Spans and counts of one traced run.
#[derive(Default)]
pub struct Trace {
    /// Durations per layer, nanoseconds.
    pub spans: BTreeMap<&'static str, Vec<u64>>,
    /// End-to-end time of every replayed operation.
    pub traced_ops: Vec<u64>,
    /// End-to-end time of operations in the untraced blocks of the same run
    /// (the baseline of `trace.overhead`); empty when the workload's
    /// measured window is identical with tracing on.
    pub untraced_ops: Vec<u64>,
    pub counts: Counts,
    /// Replays that could not follow the real operation (should stay 0).
    pub replay_errors: u64,
}

impl Trace {
    pub fn add(&mut self, layer: &'static str, ns: u64) {
        self.spans.entry(layer).or_default().push(ns);
    }

    pub fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(layer, elapsed_ns(t0));
        out
    }

    pub fn total(&self, layer: &str) -> u64 {
        self.spans.get(layer).map_or(0, |v| v.iter().sum())
    }

    pub fn replay_error(&mut self, what: String) {
        self.replay_errors += 1;
        if self.replay_errors <= 5 {
            eprintln!("pivotbench: replay: {what}");
        }
    }
}

pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A fork of `s` for replay. The representation is copied rather than
/// shared: its lazily built layers (available expressions, DDG/PDG) live
/// in the shared value, so a fork that shared it would find them already
/// built by the real operation and under-report their cost.
pub fn fork_for_replay(s: &Session) -> Session {
    let mut f = s.fork();
    f.rep = Arc::new((*s.rep).clone());
    f
}

/// Replay an undo request on `s` (the pre-request fork), following the
/// removal order the real request reported.
pub fn replay_undo(t: &mut Trace, s: &mut Session, removed: &[XformId]) -> Result<(), String> {
    t.time("core.txn.checkpoint", || s.checkpoint());
    t.counts.undos += 1;
    for &id in removed {
        replay_removal(t, s, id)?;
    }
    Ok(())
}

/// One Figure-4 removal: reversibility check, inverse actions, refresh,
/// affected region, then the safety re-check of every in-scope candidate.
fn replay_removal(t: &mut Trace, s: &mut Session, id: XformId) -> Result<(), String> {
    let record = s.history.get(id).map_err(|e| e.to_string())?.clone();
    t.time("core.revers", || {
        check_reversible(&s.prog, &s.log, &s.history, &record)
    })
    .map_err(|e| format!("{id} not reversible in replay: {}", e.error))?;
    let reversed = t.time("core.actions.inverse", || {
        let reversed: Vec<ActionKind> = s
            .log
            .actions_with(&record.stamps)
            .into_iter()
            .rev()
            .map(|sa| sa.kind.clone())
            .collect();
        for kind in &reversed {
            ActionLog::apply_inverse(&mut s.prog, kind).map_err(|e| e.to_string())?;
        }
        s.log.retire(&record.stamps);
        // The batch refresh ignores the delta, but the engine computes it.
        let _ = delta::inverse_delta(&s.prog, &reversed);
        Ok::<_, String>(reversed)
    })?;
    s.history.get_mut(id).map_err(|e| e.to_string())?.state = XformState::Undone;
    t.counts.removed += 1;
    refresh(t, s)?;
    t.time("ir.depend_pdg", || {
        s.rep.ddg(&s.prog);
    });
    let in_scope = t.time("core.region", || {
        let region = region::affected_region(&s.prog, &s.rep, &reversed);
        let candidates = s.history.active_after(id);
        let n = candidates.len() as u64;
        let picked: Vec<XformId> = candidates
            .into_iter()
            .filter(|&c| {
                s.history.get(c).is_ok_and(|rk| {
                    let sites: Vec<_> = rk
                        .params
                        .site_stmts()
                        .into_iter()
                        .filter(|&st| s.prog.is_live(st))
                        .collect();
                    interact::may_affect(&s.matrix, record.kind, rk.kind)
                        && region.overlaps(&sites, &rk.params.watched_syms())
                })
            })
            .collect();
        (n, picked)
    });
    t.counts.candidates += in_scope.0;
    t.counts.in_scope += in_scope.1.len() as u64;
    for c in in_scope.1 {
        let rk = s.history.get(c).map_err(|e| e.to_string())?.clone();
        let safe = t.time("core.safety", || {
            safety::still_safe(&s.prog, &s.rep, &s.log, &rk)
        });
        t.counts.safety_checks += 1;
        if !safe {
            t.counts.unsafe_found += 1;
        }
    }
    Ok(())
}

/// Replay `find(kind)` then `apply(opps[pick])` on `s`. `scanned` says
/// whether the real operation ran the opportunity scan (the search reuses
/// a cached scan between state changes). Returns the new record's id.
pub fn replay_apply(
    t: &mut Trace,
    s: &mut Session,
    kind: XformKind,
    pick: usize,
    scanned: bool,
) -> Result<XformId, String> {
    let opps = if scanned {
        let opps = t.time("core.catalog.find", || catalog::find(&s.prog, &s.rep, kind));
        t.counts.finds += 1;
        t.counts.find_hits += 1;
        opps
    } else {
        catalog::find(&s.prog, &s.rep, kind)
    };
    let opp = opps
        .get(pick)
        .ok_or_else(|| format!("replay found no {kind} opportunity #{pick}"))?;
    t.time("core.txn.checkpoint", || s.checkpoint());
    let applied = t.time("core.catalog.apply", || {
        let applied = catalog::apply(&mut s.prog, &mut s.log, opp).map_err(|e| e.to_string())?;
        let kinds: Vec<&ActionKind> = s
            .log
            .actions_with(&applied.stamps)
            .into_iter()
            .map(|sa| &sa.kind)
            .collect();
        let _ = delta::forward_delta(&s.prog, &kinds);
        Ok::<_, String>(applied)
    })?;
    refresh(t, s)?;
    Ok(s.history.record(
        kind,
        applied.params,
        applied.pre,
        applied.post,
        applied.stamps,
    ))
}

/// The batch refresh the engine runs by default, then its eager analyses
/// one by one on the same program.
fn refresh(t: &mut Trace, s: &mut Session) -> Result<(), String> {
    let rep = t.time("ir.twolevel", || s.rep.try_rebuilt_with(&s.prog, s.pool()));
    s.rep = Arc::new(rep.map_err(|e| e.to_string())?);
    let prog = &s.prog;
    let g = t.time("ir.cfg", || cfg::build(prog));
    t.time("ir.dom", || (dom::dominators(&g), dom::postdominators(&g)));
    let rd = t.time("ir.reaching", || reaching::compute(prog, &g));
    t.time("ir.live", || live::compute(prog, &g));
    t.time("ir.chains", || chains::compute(prog, &g, &rd));
    Ok(())
}
