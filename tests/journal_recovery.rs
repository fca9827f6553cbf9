//! Golden crash-recovery test for the write-ahead session journal.
//!
//! A scripted session (applies, an independent-order undo, a faulted —
//! aborted — undo) runs with a journal attached while we snapshot the
//! source after every committed transaction. The journal file is then
//! truncated at **every byte boundary** and recovered; each prefix must
//! recover, without panicking, to exactly the state reached by the
//! transactions whose commit records survive in that prefix.

use pivot_lang::parser::parse;
use pivot_undo::engine::{Session, Strategy};
use pivot_undo::{FaultPlan, Journal, UndoError, XformKind};
use pivot_workload::tempdir::TempDir;

const SRC: &str = "d = e + f\nr = e + f\nwrite r\nwrite d\nx = 3 * 4\nwrite x\n";

/// Run the scripted session; returns the journal bytes and the source
/// snapshot after each committed transaction (snapshots[0] = original).
fn scripted_session() -> (Vec<u8>, Vec<String>) {
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("session.journal");
    let mut s = Session::from_source(SRC).unwrap();
    s.set_journal(Journal::open(&path).unwrap());
    let mut snapshots = vec![s.source()];
    let cse = s.apply_kind(XformKind::Cse).expect("e + f recurs");
    snapshots.push(s.source());
    s.apply_kind(XformKind::Cfo).expect("3 * 4 folds");
    snapshots.push(s.source());
    s.undo(cse, Strategy::Regional).unwrap();
    snapshots.push(s.source());
    // A faulted undo: begin + abort in the journal, no state change.
    s.arm_faults(FaultPlan::nth_inverse_action(1));
    let last = *s
        .history
        .active()
        .map(|r| r.id)
        .collect::<Vec<_>>()
        .last()
        .unwrap();
    match s.undo(last, Strategy::Regional) {
        Err(UndoError::RolledBack { .. }) => {}
        other => panic!("expected rollback, got {other:?}"),
    }
    s.disarm_faults();
    let bytes = std::fs::read(&path).unwrap();
    (bytes, snapshots)
}

/// Committed transactions whose commit record fully survives in `prefix`.
/// A final line cut before its newline still counts when the record itself
/// is complete (it ends with `}` and parses), matching recovery: the
/// newline is framing, not part of the durable record.
fn commits_in(prefix: &[u8]) -> usize {
    let text = String::from_utf8_lossy(prefix);
    let segments: Vec<&str> = text.split('\n').collect();
    let last = segments.len().saturating_sub(1);
    segments
        .iter()
        .enumerate()
        .filter(|(i, l)| {
            l.contains("\"rec\":\"commit\"")
                && (*i < last || text.ends_with('\n') || l.ends_with('}'))
        })
        .count()
}

#[test]
fn recovery_is_exact_at_every_truncation_boundary() {
    let (bytes, snapshots) = scripted_session();
    assert!(!bytes.is_empty(), "journal must not be empty");
    assert_eq!(snapshots.len(), 4, "three committed transactions");
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("truncated.journal");
    for len in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let prog = parse(SRC).unwrap();
        let recovery = Session::recover(prog, &path)
            .unwrap_or_else(|e| panic!("truncation at byte {len}: {e}"));
        let want_commits = commits_in(&bytes[..len]);
        assert_eq!(
            recovery.committed, want_commits,
            "truncation at byte {len} replayed the wrong transaction count"
        );
        assert_eq!(
            recovery.session.source(),
            snapshots[want_commits],
            "truncation at byte {len} recovered to the wrong state"
        );
        assert!(
            recovery.session.consistency_violations().is_empty(),
            "truncation at byte {len} left an inconsistent session"
        );
    }
}

#[test]
fn full_journal_recovers_final_state_and_skips_the_abort() {
    let (bytes, snapshots) = scripted_session();
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("full.journal");
    std::fs::write(&path, &bytes).unwrap();
    let recovery = Session::recover(parse(SRC).unwrap(), &path).unwrap();
    assert_eq!(recovery.committed, 3);
    assert_eq!(
        recovery.aborted, 1,
        "the faulted undo must appear as an abort"
    );
    assert_eq!(recovery.discarded, 0);
    assert_eq!(recovery.session.source(), *snapshots.last().unwrap());
}

/// Run the scripted session, compact mid-script, and keep going; returns
/// the journal bytes, the end of the checkpoint record within them, and
/// source snapshots after each post-checkpoint committed transaction
/// (snapshots[0] = the checkpointed state).
fn compacted_session() -> (Vec<u8>, usize, Vec<String>) {
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("compacted.journal");
    let mut s = Session::from_source(SRC).unwrap();
    s.set_journal(Journal::open(&path).unwrap());
    let cse = s.apply_kind(XformKind::Cse).expect("e + f recurs");
    s.apply_kind(XformKind::Cfo).expect("3 * 4 folds");
    assert!(s.compact_journal().unwrap(), "journal attached");
    let mut snapshots = vec![s.source()];
    s.undo(cse, Strategy::Regional).unwrap();
    snapshots.push(s.source());
    let bytes = std::fs::read(&path).unwrap();
    let ckpt_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("checkpoint line")
        + 1;
    assert!(
        bytes.starts_with(b"{\"rec\":\"checkpoint\""),
        "compaction must leave a checkpoint record first"
    );
    (bytes, ckpt_end, snapshots)
}

#[test]
fn compacted_journal_recovers_at_every_truncation_boundary() {
    let (bytes, ckpt_end, snapshots) = compacted_session();
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("compacted_truncated.journal");
    for len in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let prog = parse(SRC).unwrap();
        let result = Session::recover(prog, &path);
        // The checkpoint record parses once its closing brace is present;
        // the trailing newline is framing, not part of the record.
        if len < 10 {
            // So short a stub is indistinguishable from a torn first
            // `begin` (all records share the `{"rec":"` prefix, `commit`
            // one byte more) and compaction's atomic rewrite can never
            // crash into this shape, so it is tolerated like any torn
            // ordinary record: a fresh, untransformed session.
            let r = result.unwrap_or_else(|e| panic!("stub of {len} bytes: {e}"));
            assert_eq!(r.committed, 0, "stub of {len} bytes");
            assert!(!r.from_checkpoint, "stub of {len} bytes");
            continue;
        }
        if len < ckpt_end - 1 {
            // Truncation *inside* the checkpoint record. The checkpoint is
            // the only carrier of the compacted-away history, so a torn
            // one is unrecoverable corruption: it must be *detected*, not
            // silently treated as an empty or shorter journal.
            let err = match result {
                Err(e) => e.to_string(),
                Ok(r) => panic!(
                    "truncation at byte {len} (inside the checkpoint) must \
                     fail, but recovered {} txns",
                    r.committed
                ),
            };
            assert!(
                err.contains("checkpoint"),
                "truncation at byte {len}: error must name the checkpoint, \
                 got: {err}"
            );
            continue;
        }
        // At or past the checkpoint: snapshot restore + surviving tail.
        let r = result.unwrap_or_else(|e| panic!("truncation at byte {len}: {e}"));
        assert!(r.from_checkpoint, "truncation at byte {len}");
        let want_commits = commits_in(&bytes[..len]);
        assert_eq!(
            r.committed, want_commits,
            "truncation at byte {len} replayed the wrong transaction count"
        );
        assert_eq!(
            r.session.source(),
            snapshots[want_commits],
            "truncation at byte {len} recovered to the wrong state"
        );
        assert!(
            r.session.consistency_violations().is_empty(),
            "truncation at byte {len} left an inconsistent session"
        );
    }
}

#[test]
fn compacted_recovery_preserves_undoability_of_checkpointed_history() {
    let (bytes, _, _) = compacted_session();
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("compacted_resume.journal");
    std::fs::write(&path, &bytes).unwrap();
    let recovery = Session::recover(parse(SRC).unwrap(), &path).unwrap();
    assert!(recovery.from_checkpoint);
    let mut s = recovery.session;
    s.set_journal(Journal::open(&path).unwrap());
    // The transformation applied *before* the checkpoint is still undoable
    // after a snapshot-based recovery.
    let remaining: Vec<_> = s.history.active().map(|r| r.id).collect();
    assert!(!remaining.is_empty(), "cfo survives the checkpoint");
    for id in remaining {
        match s.undo(id, Strategy::Regional) {
            Ok(_) | Err(UndoError::AlreadyUndone(_)) => {}
            Err(e) => panic!("undo {id}: {e}"),
        }
    }
    assert_eq!(s.source(), Session::from_source(SRC).unwrap().source());
    s.assert_consistent();
}

/// Like [`compacted_session`], but the checkpoint record is serialized
/// while the session's state is *structurally shared*: clones and held
/// transaction checkpoints keep every arena chunk and the rep referenced
/// from several owners when compaction walks them. The journal bytes a
/// shared writer produces must be byte-identical to the unshared writer's
/// — and therefore recover identically at every truncation boundary.
fn shared_compacted_session() -> (Vec<u8>, usize, Vec<String>) {
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("shared_compacted.journal");
    let mut s = Session::from_source(SRC).unwrap();
    s.set_journal(Journal::open(&path).unwrap());
    let cse = s.apply_kind(XformKind::Cse).expect("e + f recurs");
    s.apply_kind(XformKind::Cfo).expect("3 * 4 folds");
    // Force sharing: a live clone and a held checkpoint alias every chunk
    // the compaction-time serializer reads.
    let held_clone = s.clone();
    let held_cp = s.checkpoint();
    assert!(s.compact_journal().unwrap(), "journal attached");
    let mut snapshots = vec![s.source()];
    s.undo(cse, Strategy::Regional).unwrap();
    snapshots.push(s.source());
    drop(held_cp);
    drop(held_clone);
    let bytes = std::fs::read(&path).unwrap();
    let ckpt_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .expect("checkpoint line")
        + 1;
    assert!(
        bytes.starts_with(b"{\"rec\":\"checkpoint\""),
        "compaction must leave a checkpoint record first"
    );
    (bytes, ckpt_end, snapshots)
}

#[test]
fn shared_snapshot_checkpoint_bytes_match_unshared_writer() {
    let (shared_bytes, shared_ckpt_end, _) = shared_compacted_session();
    let (bytes, ckpt_end, _) = compacted_session();
    assert_eq!(
        shared_ckpt_end, ckpt_end,
        "checkpoint records differ in length"
    );
    assert_eq!(
        shared_bytes, bytes,
        "a shared-snapshot writer must serialize byte-identical journals"
    );
}

#[test]
fn shared_snapshot_checkpoint_recovers_at_every_truncation_boundary() {
    let (bytes, ckpt_end, snapshots) = shared_compacted_session();
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("shared_compacted_truncated.journal");
    for len in 0..=bytes.len() {
        std::fs::write(&path, &bytes[..len]).unwrap();
        let prog = parse(SRC).unwrap();
        let result = Session::recover(prog, &path);
        if len < 10 {
            // Same short-stub tolerance as the unshared sweep: the prefix
            // is indistinguishable from a torn ordinary record.
            let r = result.unwrap_or_else(|e| panic!("stub of {len} bytes: {e}"));
            assert_eq!(r.committed, 0, "stub of {len} bytes");
            assert!(!r.from_checkpoint, "stub of {len} bytes");
            continue;
        }
        if len < ckpt_end - 1 {
            // A torn checkpoint is unrecoverable corruption and must be
            // detected, exactly as with an unshared writer.
            let err = match result {
                Err(e) => e.to_string(),
                Ok(r) => panic!(
                    "truncation at byte {len} (inside the checkpoint) must \
                     fail, but recovered {} txns",
                    r.committed
                ),
            };
            assert!(
                err.contains("checkpoint"),
                "truncation at byte {len}: error must name the checkpoint, \
                 got: {err}"
            );
            continue;
        }
        let r = result.unwrap_or_else(|e| panic!("truncation at byte {len}: {e}"));
        assert!(r.from_checkpoint, "truncation at byte {len}");
        let want_commits = commits_in(&bytes[..len]);
        assert_eq!(
            r.committed, want_commits,
            "truncation at byte {len} replayed the wrong transaction count"
        );
        assert_eq!(
            r.session.source(),
            snapshots[want_commits],
            "truncation at byte {len} recovered to the wrong state"
        );
        assert!(
            r.session.consistency_violations().is_empty(),
            "truncation at byte {len} left an inconsistent session"
        );
    }
}

#[test]
fn recovered_session_continues_journaling_and_undoing() {
    let (bytes, _) = scripted_session();
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("resume.journal");
    std::fs::write(&path, &bytes).unwrap();
    let recovery = Session::recover(parse(SRC).unwrap(), &path).unwrap();
    let mut s = recovery.session;
    // The recovered session is a normal session: attach the journal again
    // and keep going; transaction ids continue past the replayed ones.
    s.set_journal(Journal::open(&path).unwrap());
    let remaining: Vec<_> = s.history.active().map(|r| r.id).collect();
    for id in remaining {
        match s.undo(id, Strategy::Regional) {
            Ok(_) | Err(UndoError::AlreadyUndone(_)) => {}
            Err(e) => panic!("undo {id}: {e}"),
        }
    }
    assert_eq!(s.source(), Session::from_source(SRC).unwrap().source());
    s.assert_consistent();
    // And the re-attached journal recovers to the same final (empty) state.
    let r2 = Session::recover(parse(SRC).unwrap(), &path).unwrap();
    assert_eq!(r2.session.source(), s.source());
    assert!(r2.session.history.active().next().is_none());
}

/// A crash mid-append leaves a torn (newline-less) prefix of a begin
/// record at the tail. Recovery must discard exactly that tail; a journal
/// re-attached *after* the torn bytes (the daemon's restart path) must
/// keep appending records that the next recovery replays — the tear cannot
/// poison transactions committed after it. (Promoted from the PR-8 review
/// probe `tmp_review_probe.rs`.)
#[test]
fn append_after_torn_tail_keeps_later_commits() {
    let dir = TempDir::new("journal_recovery").unwrap();
    let path = dir.join("torn_append.journal");
    let mut s = Session::from_source(SRC).unwrap();
    s.set_journal(Journal::open(&path).unwrap());
    s.apply_kind(XformKind::Cse).expect("e + f recurs");
    let after_cse = s.source();
    drop(s);

    // Simulate the crash: a strict prefix of a begin record, no newline
    // (the same tear servecheck's kill points produce).
    let text = std::fs::read_to_string(&path).unwrap();
    let begin = text
        .lines()
        .find(|l| l.contains("\"rec\":\"begin\""))
        .expect("journal has a begin record")
        .to_string();
    let mut bytes = text.into_bytes();
    bytes.extend_from_slice(&begin.as_bytes()[..begin.len() / 2]);
    std::fs::write(&path, &bytes).unwrap();

    // First recovery: the torn tail is discarded, the committed apply is
    // replayed.
    let rec = Session::recover(parse(SRC).unwrap(), &path).expect("first recovery");
    assert_eq!(rec.committed, 1);
    assert_eq!(rec.discarded, 1, "the torn begin is a discarded tail");
    assert_eq!(rec.session.source(), after_cse);

    // Restart path: re-attach the journal — `Journal::open` truncates the
    // never-durable torn tail so fresh records start on a clean line — and
    // commit one more transaction.
    let mut s2 = rec.session;
    s2.set_journal(Journal::open(&path).unwrap());
    s2.apply_kind(XformKind::Cfo).expect("3 * 4 folds");
    let after_cfo = s2.source();
    drop(s2);

    // Second recovery: both committed transactions replay; the tear in the
    // middle stays invisible.
    let r2 = Session::recover(parse(SRC).unwrap(), &path).expect("second recovery");
    assert_eq!(r2.committed, 2, "commit after the tear must survive");
    assert_eq!(r2.session.source(), after_cfo);
    assert!(r2.session.consistency_violations().is_empty());
}
