//! Snapshot-aliasing oracle for the copy-on-write spine: checkpoints and
//! session clones are *immutable captures*. Whatever the live session does
//! afterwards — more transformations, undos, rollbacks, journal
//! compaction, crash recovery — no held snapshot may observe the
//! mutation. These tests hold snapshots across every mutating pathway and
//! compare fingerprints taken at capture time, and additionally assert
//! (via the `PVec` sharing diagnostics and `Arc` refcounts) that the
//! captures really do share structure rather than passing by deep copy.

use pivot_lang::parser::parse;
use pivot_undo::engine::{Session, Strategy};
use pivot_undo::snapshot::fingerprint;
use pivot_undo::{Journal, XformKind};
use pivot_workload::tempdir::TempDir;
use pivot_workload::{prepare, WorkloadCfg};
use std::sync::Arc;

const SRC: &str = "d = e + f\nr = e + f\nwrite r\nwrite d\nx = 3 * 4\nwrite x\n";

fn workload_session() -> (Session, Vec<pivot_undo::XformId>) {
    let cfg = WorkloadCfg {
        fragments: 8,
        noise_ratio: 0.3,
        figure1_chains: 1,
        ..Default::default()
    };
    let p = prepare(0xA11A5, &cfg, 12);
    (p.session, p.applied)
}

#[test]
fn clones_share_structure_and_stay_immutable() {
    let (mut s, applied) = workload_session();
    let held = s.clone();
    let held_fp = fingerprint(&held);
    let held_src = held.source();

    // The clone is a share, not a copy: the action log's chunks are all
    // referenced from both sessions, and the rep is one Arc two ways.
    assert!(
        s.log.actions.shared_chunks() == s.log.actions.chunk_count(),
        "clone must share every action-log chunk"
    );
    assert!(
        s.history.records.shared_chunks() > 0,
        "clone must share history chunks"
    );
    assert!(Arc::strong_count(&s.rep) >= 2, "clone must share the rep");

    for id in applied {
        let _ = s.undo(id, Strategy::Regional);
    }
    assert_ne!(fingerprint(&s), held_fp, "undos must change the session");
    assert_eq!(fingerprint(&held), held_fp, "held clone observed an undo");
    assert_eq!(held.source(), held_src, "held clone's source changed");
    held.assert_consistent();
}

#[test]
fn checkpoints_held_across_rollbacks_stay_exact() {
    let (mut s, applied) = workload_session();

    // Take a checkpoint before every undo and record the fingerprint each
    // captured; roll back through them in reverse and in arbitrary
    // (non-LIFO) order — every restore must be exact.
    let mut caps = Vec::new();
    for &id in &applied {
        caps.push((fingerprint(&s), s.checkpoint()));
        let _ = s.undo(id, Strategy::Regional);
    }

    // Non-LIFO: roll back to the middle, then to an *earlier* capture,
    // then re-check a later capture still restores exactly.
    let mid = caps.len() / 2;
    let (fp_mid, cp_mid) = caps.swap_remove(mid);
    s.rollback(cp_mid);
    assert_eq!(fingerprint(&s), fp_mid, "mid rollback inexact");
    s.assert_consistent();

    let (fp_first, cp_first) = caps.swap_remove(0);
    s.rollback(cp_first);
    assert_eq!(fingerprint(&s), fp_first, "earlier rollback inexact");
    s.assert_consistent();

    let (fp_last, cp_last) = caps.pop().unwrap();
    s.rollback(cp_last);
    assert_eq!(fingerprint(&s), fp_last, "later rollback inexact");
    s.assert_consistent();
}

#[test]
fn held_snapshots_survive_journal_compaction() {
    let dir = TempDir::new("snapshot_aliasing").unwrap();
    let path = dir.join("compaction.journal");
    let mut s = Session::from_source(SRC).unwrap();
    s.set_journal(Journal::open(&path).unwrap());
    let cse = s.apply_kind(XformKind::Cse).expect("e + f recurs");
    s.apply_kind(XformKind::Cfo).expect("3 * 4 folds");

    let held = s.clone();
    let held_fp = fingerprint(&held);
    let cp = s.checkpoint();
    let cp_fp = fingerprint(&s);

    // Compaction serializes a checkpoint record from the *shared* state
    // and rewrites the journal; neither held capture may move.
    assert!(s.compact_journal().unwrap(), "journal attached");
    s.undo(cse, Strategy::Regional).unwrap();

    assert_eq!(fingerprint(&held), held_fp, "clone observed compaction");
    s.rollback(cp);
    assert_eq!(fingerprint(&s), cp_fp, "checkpoint observed compaction");
    s.assert_consistent();
}

#[test]
fn held_snapshots_survive_recovery_of_their_journal() {
    let dir = TempDir::new("snapshot_aliasing").unwrap();
    let path = dir.join("recovery.journal");
    let mut s = Session::from_source(SRC).unwrap();
    s.set_journal(Journal::open(&path).unwrap());
    s.apply_kind(XformKind::Cse).expect("e + f recurs");
    s.apply_kind(XformKind::Cfo).expect("3 * 4 folds");

    let held = s.clone();
    let held_fp = fingerprint(&held);

    // Recover a second session from the same journal and mutate it; the
    // held clone of the original shares nothing observable with it.
    let mut recovered = Session::recover(parse(SRC).unwrap(), &path)
        .expect("journal recovers")
        .session;
    assert_eq!(fingerprint(&recovered), held_fp, "recovery must be exact");
    let ids: Vec<_> = recovered.history.active().map(|r| r.id).collect();
    for id in ids {
        let _ = recovered.undo(id, Strategy::Regional);
    }
    assert_ne!(fingerprint(&recovered), held_fp);
    assert_eq!(fingerprint(&held), held_fp, "held clone observed recovery");
    held.assert_consistent();
}

#[test]
fn checkpoint_is_constant_cost_in_shared_chunks() {
    // The production checkpoint leaves all but the tail chunks shared;
    // a forward apply afterwards dirties only the chunks it touches.
    let (mut s, _) = workload_session();
    let _cp = s.checkpoint();
    let total = s.log.actions.chunk_count();
    assert_eq!(
        s.log.actions.shared_chunks(),
        total,
        "checkpoint must share all action-log chunks"
    );
    if s.apply_kind(XformKind::Dce).is_some() {
        let shared_after = s.log.actions.shared_chunks();
        assert!(
            total == 0 || shared_after >= total.saturating_sub(1),
            "an append may unshare at most the tail chunk \
             (shared {shared_after} of {total})"
        );
    }
}
