//! Experiment E20 driver: opportunity-scan time per transformation kind
//! at three program sizes.
//!
//! Generates the programs the benchmark workloads use (16 fragments as in
//! `search-reject`, 64 as in `apply-sweep`, 220 as in `undo-any-order`),
//! builds each representation once, and times `catalog::find(kind)` warm:
//! the median of `--runs` calls (default 41) after three warm-up calls.
//! Prints one row per kind with the median in microseconds at each size,
//! and the CSE growth from the middle size to the largest.
//!
//! ```text
//! cargo run --release -p pivot-undo --example profile_find -- [--seed N] [--runs N]
//! ```

use pivot_undo::{catalog, XformKind, ALL_KINDS};
use pivot_workload::{gen_program, WorkloadCfg};
use std::time::Instant;

fn arg(args: &[String], name: &str, default: u64) -> u64 {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(|v| v.parse().expect("numeric argument"))
        .unwrap_or(default)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = arg(&args, "--seed", 1);
    let runs = arg(&args, "--runs", 41).max(1) as usize;
    // (fragments, noise, Figure-1 chains) of the three workloads.
    let shapes = [(16, 0.5, 0), (64, 0.3, 2), (220, 0.2, 4)];
    let mut sizes = Vec::new();
    let mut medians = vec![Vec::new(); ALL_KINDS.len()];
    for (fragments, noise_ratio, figure1_chains) in shapes {
        let cfg = WorkloadCfg {
            fragments,
            noise_ratio,
            kinds: None,
            figure1_chains,
        };
        let prog = gen_program(seed, &cfg);
        let rep = pivot_ir::Rep::build(&prog);
        sizes.push(prog.attached_len());
        for (k, &kind) in ALL_KINDS.iter().enumerate() {
            for _ in 0..3 {
                std::hint::black_box(catalog::find(&prog, &rep, kind));
            }
            let mut ns: Vec<u128> = (0..runs)
                .map(|_| {
                    let t0 = Instant::now();
                    std::hint::black_box(catalog::find(&prog, &rep, kind));
                    t0.elapsed().as_nanos()
                })
                .collect();
            ns.sort_unstable();
            medians[k].push(ns[ns.len() / 2] as f64 / 1e3);
        }
    }
    println!("find median (us), seed {seed}, {runs} runs");
    print!("{:<5}", "kind");
    for n in &sizes {
        print!("{:>12}", format!("{n} stmts"));
    }
    println!();
    for (k, kind) in ALL_KINDS.iter().enumerate() {
        print!("{:<5}", kind.abbrev());
        for us in &medians[k] {
            print!("{us:>12.1}");
        }
        println!();
    }
    let cse = &medians[ALL_KINDS
        .iter()
        .position(|&k| k == XformKind::Cse)
        .expect("CSE is a kind")];
    println!(
        "CSE growth {} -> {} stmts: {:.2}x",
        sizes[1],
        sizes[2],
        cse[2] / cse[1]
    );
}
