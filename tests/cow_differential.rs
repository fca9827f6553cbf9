//! Differential suite for the copy-on-write snapshot spine (experiment
//! E18): the same seeded apply/undo/edit script runs through two engines —
//! the production engine, whose checkpoints and clones share structure
//! (chunked persistent arenas, `Arc`'d representation), and an oracle with
//! the old eager-clone semantics, rebuilt from a deep copy before every
//! step so it can share nothing with its own past. Fingerprints, sources,
//! journal bytes, and `UndoReport` counters must stay **byte-identical**
//! at every step. The shared engine additionally holds every checkpoint it
//! ever takes alive for the whole script, so any aliasing bug — a held
//! chunk observing a later mutation — shows up as a divergence.

use pivot_undo::engine::Session;
use pivot_undo::snapshot::{fingerprint, restore_json, snapshot_json};
use pivot_undo::{Journal, Strategy, UndoError, UndoReport};
use pivot_workload::tempdir::TempDir;
use pivot_workload::{gen_edit, prepare, WorkloadCfg};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn cfg() -> WorkloadCfg {
    WorkloadCfg {
        fragments: 6,
        noise_ratio: 0.4,
        figure1_chains: 1,
        ..Default::default()
    }
}

/// Deep-copy a session through the snapshot round-trip: the result shares
/// no heap structure with the input (fresh arenas, fresh rep), which is
/// exactly the pre-CoW eager-clone semantics. The journal handle, which a
/// snapshot deliberately does not carry, is re-attached by the caller.
fn deep_copy(s: &Session) -> Session {
    restore_json(&snapshot_json(s)).expect("snapshot round-trip")
}

/// Comparable projection of an undo outcome.
fn report_line(id: pivot_undo::XformId, r: &Result<UndoReport, UndoError>) -> String {
    match r {
        Ok(r) => format!(
            "undo {id}: undone {:?} cand {} safety {} rev {} chases {} rebuilds {}",
            r.undone,
            r.candidates_considered,
            r.safety_checks,
            r.reversibility_checks,
            r.affecting_chases,
            r.rep_rebuilds
        ),
        Err(e) => format!("undo {id}: error {e}"),
    }
}

/// Run the canonical script through both engines, comparing at every step.
fn run_differential(seed: u64, shuffle: u64) {
    let dir = TempDir::new("cow_differential").unwrap();
    let shared_path = dir.join("shared.journal");
    let oracle_path = dir.join("oracle.journal");

    let mut shared = prepare(seed, &cfg(), 8);
    let mut oracle = prepare(seed, &cfg(), 8).session;
    assert_eq!(fingerprint(&shared.session), fingerprint(&oracle));

    shared
        .session
        .set_journal(Journal::open(&shared_path).unwrap());
    oracle.set_journal(Journal::open(&oracle_path).unwrap());

    // Held checkpoints: every one must stay valid to the end of the script.
    // Alongside each we record the fingerprint and source at capture time.
    let mut held = vec![(
        fingerprint(&shared.session),
        shared.session.source(),
        shared.session.checkpoint(),
    )];

    let mut order = shared.applied.clone();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(shuffle));

    let mut step = |shared: &mut Session, oracle: &mut Session, op: &str| {
        // The oracle forgets its own heap every step: deep-copy semantics.
        let journal = oracle.take_journal().expect("oracle journal attached");
        *oracle = deep_copy(oracle);
        oracle.set_journal(journal);

        let (sr, or) = match op.strip_prefix("undo ") {
            Some(n) => {
                let id = pivot_undo::XformId(n.parse().unwrap());
                (
                    report_line(id, &shared.undo(id, Strategy::Regional)),
                    report_line(id, &oracle.undo(id, Strategy::Regional)),
                )
            }
            None => unreachable!("only undo ops scripted here"),
        };
        assert_eq!(sr, or, "step `{op}`: reports diverge");
        assert_eq!(
            shared.source(),
            oracle.source(),
            "step `{op}`: sources diverge"
        );
        assert_eq!(
            fingerprint(shared),
            fingerprint(oracle),
            "step `{op}`: fingerprints diverge"
        );
        held.push((fingerprint(shared), shared.source(), shared.checkpoint()));
    };

    for id in &order {
        step(&mut shared.session, &mut oracle, &format!("undo {}", id.0));
    }

    // Every checkpoint held across the whole undo phase still restores its
    // exact capture state — probed on clones so the script itself is
    // undisturbed, and in taken order, which is non-LIFO relative to the
    // mutations between them.
    for (i, (fp, src, cp)) in held.into_iter().enumerate() {
        let mut probe = shared.session.clone();
        probe.rollback(cp);
        assert_eq!(
            fingerprint(&probe),
            fp,
            "held checkpoint {i} observed a later mutation"
        );
        assert_eq!(probe.source(), src, "held checkpoint {i}: source drifted");
        probe.assert_consistent();
    }

    // A checkpoint held across an *edit*: the edit rewrites the pristine
    // baseline (`original`), which checkpoints deliberately do not capture,
    // so the program/log/history must restore exactly (source-level check)
    // even though the whole-session fingerprint legitimately moves.
    let pre_edit_src = shared.session.source();
    let pre_edit_cp = shared.session.checkpoint();

    // An edit plus the unsafe-removal sweep, same comparisons.
    let edit = gen_edit(&shared.session, seed.wrapping_mul(131).wrapping_add(7));
    let se = shared.session.edit(&edit);
    let journal = oracle.take_journal().expect("oracle journal attached");
    oracle = deep_copy(&oracle);
    oracle.set_journal(journal);
    let oe = oracle.edit(&edit);
    assert_eq!(se.is_ok(), oe.is_ok(), "edit outcome diverges");
    if se.is_ok() {
        shared.session.remove_unsafe(Strategy::Regional);
        oracle.remove_unsafe(Strategy::Regional);
    }
    assert_eq!(fingerprint(&shared.session), fingerprint(&oracle));
    assert_eq!(shared.session.source(), oracle.source());

    // Journal bytes: the shared engine's checkpoint records and op framing
    // must be byte-identical to the eager oracle's.
    let shared_bytes = std::fs::read(&shared_path).unwrap();
    let oracle_bytes = std::fs::read(&oracle_path).unwrap();
    assert_eq!(
        shared_bytes, oracle_bytes,
        "journal bytes diverge between shared and deep-copy engines"
    );

    // The pre-edit checkpoint, held across the edit and the sweep, rolls
    // the program/log/history back exactly.
    shared.session.rollback(pre_edit_cp);
    assert_eq!(
        shared.session.source(),
        pre_edit_src,
        "checkpoint held across an edit did not restore the program"
    );
    shared.session.assert_consistent();
    oracle.assert_consistent();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Tentpole invariant: shared-structure engine vs deep-copy oracle,
    /// byte-identical at every step, with all checkpoints held alive.
    #[test]
    fn shared_engine_matches_deep_copy_oracle(seed in 0u64..300, shuffle in 0u64..1000) {
        run_differential(seed, shuffle);
    }
}

/// Pin one deterministic case (fast, runs even under `--test-threads 1`
/// smoke filters) so the suite never silently shrinks to zero cases.
#[test]
fn shared_engine_matches_oracle_fixed_case() {
    run_differential(42, 7);
}
