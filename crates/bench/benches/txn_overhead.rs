//! Transactional-undo overhead: what the checkpoint/rollback machinery and
//! the write-ahead journal cost on the standard mid-sequence undo.
//!
//! Expected shape (recorded in EXPERIMENTS.md): the checkpoint is a
//! copy-on-write capture of the four session structures — chunk-table
//! copies plus refcount bumps, effectively O(1) in program size — so
//! `undo` with no journal stays within noise of the pre-transactional
//! engine; attaching a journal adds two synced line writes per request
//! and dominates on fast undos. The `checkpoint` entries time take +
//! release on a live session (the per-request cost); the size ladder
//! (16/64/256 fragments) pins the flat-in-program-size claim, and
//! `pivot-workload cowcheck` gates the speedup against the eager
//! deep-copy baseline in CI.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use pivot_undo::engine::Strategy;
use pivot_undo::Journal;
use pivot_workload::tempdir::TempDir;
use pivot_workload::{prepare, WorkloadCfg};

fn setup(frags: usize) -> (WorkloadCfg, u64) {
    (
        WorkloadCfg {
            fragments: frags,
            noise_ratio: 0.3,
            ..Default::default()
        },
        0xBEEF ^ frags as u64,
    )
}

fn bench_txn(c: &mut Criterion) {
    let (cfg, seed) = setup(16);
    let probe = prepare(seed, &cfg, 32);
    let target = probe.applied[probe.applied.len() / 4];

    let mut g = c.benchmark_group("txn_overhead");
    g.sample_size(20);

    // Raw snapshot cost: what every apply/undo request pays up front.
    // Timed on a live session so only take + release is measured (the old
    // iter_batched form also timed tearing down the whole prepared
    // session, swamping the number it existed to track).
    g.bench_function("checkpoint", |b| b.iter(|| probe.session.checkpoint()));

    // Same capture across a size ladder: copy-on-write checkpoints must
    // stay flat as the program grows.
    for frags in [64usize, 256] {
        let (lcfg, lseed) = setup(frags);
        let large = prepare(lseed, &lcfg, 32);
        g.bench_function(BenchmarkId::new("checkpoint", frags), |b| {
            b.iter(|| large.session.checkpoint())
        });
    }

    // Mid-sequence undo with the checkpoint/rollback machinery but no
    // journal — the default configuration.
    g.bench_function("undo_no_journal", |b| {
        b.iter_batched(
            || prepare(seed, &cfg, 32),
            |mut p| {
                p.session
                    .undo(target, Strategy::Regional)
                    .expect("undo")
                    .undone
                    .len()
            },
            BatchSize::PerIteration,
        )
    });

    // The same undo with a write-ahead journal attached (begin + commit,
    // each flushed and synced).
    let dir = TempDir::new("bench_txn").expect("scratch dir");
    let path = dir.join("undo.journal");
    g.bench_function("undo_journal", |b| {
        b.iter_batched(
            || {
                let mut p = prepare(seed, &cfg, 32);
                p.session
                    .set_journal(Journal::open(&path).expect("journal"));
                p
            },
            |mut p| {
                p.session
                    .undo(target, Strategy::Regional)
                    .expect("undo")
                    .undone
                    .len()
            },
            BatchSize::PerIteration,
        )
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_txn
}
criterion_main!(benches);
