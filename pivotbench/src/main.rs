//! `pivotbench`: one layered benchmark for the four operations a user of
//! the undo engine sees: `apply`, any-order `undo`, the stochastic
//! search's reject step, and a durable request to the `pivot serve`
//! daemon.
//!
//! ```text
//! pivotbench [run] --workload <name> --seed <n> [--seconds <s>] [--trace 0|1]
//!                  [--scale full|smoke] [--pivot-bin <path>]
//! pivotbench series --out <file> [--runs <n>] [--first-seed <n>] [--seconds <s>]
//!                   [--workloads a,b] [--trace 0|1]
//! pivotbench compare <parent.jsonl> <change.jsonl> [--benchmark <file>]
//! pivotbench calibrate [--runs <n>] [--seconds <s>] [--label <text>]
//!                      [--out <file>] [--benchmark <file>]
//! ```
//!
//! `run` prints, as its last line, `{"correct", "attempted", "failed",
//! "metrics"}`: the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1` (preceded by one `{op, layer, n, p50, p99,
//! share}` record per layer). See `README.md` for the workloads and the
//! metrics.

mod compare;
mod json;
mod layers;
mod report;
mod spec;
mod stats;
mod tempdir;
mod workloads;

use std::path::{Path, PathBuf};
use workloads::{Outcome, Params, FULL, NAMES, SMOKE};

/// Settings that would silently change what is measured: the worker pool
/// size and schedule, and the daemon's test hooks and kill point. The
/// benchmark measures the default configuration.
const CLEARED_ENV: [&str; 2] = ["PIVOT_THREADS", "PIVOT_SCHED_SEED"];
const CLEARED_ENV_PREFIX: &str = "PIVOT_SERVE_";

fn main() {
    for (k, _) in std::env::vars_os() {
        let k = k.to_string_lossy().into_owned();
        if CLEARED_ENV.contains(&k.as_str()) || k.starts_with(CLEARED_ENV_PREFIX) {
            std::env::remove_var(&k);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli(&args) {
        Ok(0) => {}
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("pivotbench: {e}");
            std::process::exit(2);
        }
    }
}

/// Flag values after the subcommand, plus the positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = args.iter();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), v.clone()));
            } else {
                positional.push(a.clone());
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .rev()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{name} value `{v}`")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(k, _)| !allowed.contains(&k.as_str()))
        {
            Some((k, _)) => Err(format!("unknown option --{k}")),
            None => Ok(()),
        }
    }
}

fn cli(args: &[String]) -> Result<i32, String> {
    let (cmd, rest) = match args.first().map(String::as_str) {
        Some(c @ ("run" | "series" | "compare" | "calibrate")) => (c, &args[1..]),
        _ => ("run", args),
    };
    let a = Args::parse(rest)?;
    let spec_path = PathBuf::from(a.get("benchmark").unwrap_or("BENCHMARK.json"));
    match cmd {
        "run" => {
            a.only(&["workload", "seed", "seconds", "trace", "scale", "pivot-bin"])?;
            run(&a)
        }
        "series" => {
            a.only(&["out", "runs", "first-seed", "seconds", "workloads", "trace"])?;
            let out = a.get("out").ok_or("series: --out is required")?;
            let first: u64 = a.num("first-seed", 1)?;
            let workloads: Vec<String> = match a.get("workloads") {
                Some(l) => l.split(',').map(str::to_string).collect(),
                None => NAMES.iter().map(|s| s.to_string()).collect(),
            };
            let text = compare::series(
                &workloads,
                first..first + a.num("runs", 5)?,
                a.num("seconds", 10)?,
                a.num::<u8>("trace", 0)? == 1,
            )?;
            append(Path::new(out), &text)?;
            Ok(0)
        }
        "compare" => {
            a.only(&["benchmark"])?;
            let [parent, change] = a.positional.as_slice() else {
                return Err("compare: expected <parent.jsonl> <change.jsonl>".into());
            };
            let spec = spec::Spec::load(&spec_path)?;
            let (table, bad) = compare::compare(
                &spec,
                &compare::load_series(Path::new(parent))?,
                &compare::load_series(Path::new(change))?,
            );
            print!("{table}");
            Ok(i32::from(bad))
        }
        "calibrate" => {
            a.only(&["runs", "seconds", "label", "out", "benchmark"])?;
            let spec = spec::Spec::load(&spec_path)?;
            let runs: u64 = a.num("runs", 5)?;
            let seconds = a.num("seconds", spec.run_seconds)?;
            let first = compare::series(&spec.workloads, 1..1 + runs, seconds, false)?;
            let second = compare::series(&spec.workloads, 1 + runs..1 + 2 * runs, seconds, false)?;
            let (table, doc) = compare::calibrate(
                &spec,
                &compare::parse_series(&first)?,
                &compare::parse_series(&second)?,
                a.get("label").unwrap_or(""),
            );
            print!("{table}");
            let out = a.get("out").unwrap_or("pivotbench/CALIBRATION.json");
            std::fs::write(out, doc).map_err(|e| format!("{out}: {e}"))?;
            Ok(0)
        }
        _ => unreachable!("subcommand matched above"),
    }
}

fn append(path: &Path, text: &str) -> Result<(), String> {
    use std::io::Write;
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| f.write_all(text.as_bytes()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

fn run(a: &Args) -> Result<i32, String> {
    let workload = a.get("workload").ok_or("--workload is required")?;
    let params = Params {
        seed: a
            .get("seed")
            .ok_or("--seed is required")?
            .parse()
            .map_err(|_| "bad --seed")?,
        seconds: a.num("seconds", 10.0)?,
        trace: match a.get("trace").unwrap_or("0") {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace is 0 or 1, not `{t}`")),
        },
        scale: match a.get("scale").unwrap_or("full") {
            "full" => FULL,
            "smoke" => SMOKE,
            s => return Err(format!("--scale is full or smoke, not `{s}`")),
        },
    };
    let outcome = match (workload, a.get("pivot-bin")) {
        ("serve-durable", Some(bin)) => workloads::serve::run_with(&params, Path::new(bin))?,
        _ => workloads::run(workload, &params)?,
    };
    for line in result_lines(workload, &outcome)? {
        println!("{line}");
    }
    Ok(0)
}

/// The operation each workload times.
fn op_name(workload: &str) -> &'static str {
    match workload {
        "undo-any-order" => "undo",
        "apply-sweep" => "apply",
        "search-reject" => "opportunity_move",
        _ => "durable_write",
    }
}

/// The per-layer records, if traced, then the result line.
fn result_lines(workload: &str, o: &Outcome) -> Result<Vec<String>, String> {
    for w in &o.wrong {
        eprintln!("pivotbench: {workload}: wrong output: {w}");
    }
    let mut lines = Vec::new();
    let metrics = match &o.trace {
        Some(t) => {
            lines.extend(report::records(op_name(workload), t));
            report::per_layer(t)
        }
        None => report::end_to_end(o)?,
    };
    lines.push(report::result_line(
        o.wrong.is_empty(),
        o.attempted,
        o.failed,
        &metrics,
    ));
    Ok(lines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, trace: bool) -> (Outcome, Vec<String>) {
        let p = Params {
            seed: 5,
            seconds: 0.0,
            trace,
            scale: SMOKE,
        };
        let o = if workload == "serve-durable" {
            let bin = Path::new(env!("CARGO_MANIFEST_DIR")).join("../target/release/pivot");
            assert!(
                bin.is_file(),
                "{} is missing: build it first with `cargo build --release` at the repository root",
                bin.display()
            );
            workloads::serve::run_with(&p, &bin).unwrap()
        } else {
            workloads::run(workload, &p).unwrap()
        };
        let lines = result_lines(workload, &o).unwrap();
        (o, lines)
    }

    fn metrics_of(line: &str) -> Vec<String> {
        let v = json::parse(line).unwrap();
        assert_eq!(
            v.get("correct").and_then(json::Value::as_bool),
            Some(true),
            "{line}"
        );
        assert_eq!(
            v.get("failed").and_then(json::Value::as_f64),
            Some(0.0),
            "{line}"
        );
        assert!(v.get("attempted").and_then(json::Value::as_f64).unwrap() >= 1.0);
        v.get("metrics")
            .and_then(json::Value::as_object)
            .unwrap()
            .keys()
            .cloned()
            .collect()
    }

    #[test]
    fn every_workload_prints_every_metric_at_smoke_scale() {
        let spec =
            spec::Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
                .unwrap();
        let mut e2e: Vec<String> = spec.end_to_end.iter().map(|m| m.name.clone()).collect();
        let mut layer = spec.per_layer.clone();
        e2e.sort();
        layer.sort();
        for w in NAMES {
            let (o, lines) = smoke(w, false);
            assert!(o.wrong.is_empty(), "{w}: {:?}", o.wrong);
            assert_eq!(metrics_of(lines.last().unwrap()), e2e, "{w}");
            let (o, lines) = smoke(w, true);
            let t = o.trace.as_ref().unwrap();
            assert_eq!(t.replay_errors, 0, "{w}");
            assert_eq!(metrics_of(lines.last().unwrap()), layer, "{w}");
            let records = &lines[..lines.len() - 1];
            assert!(
                records
                    .iter()
                    .any(|r| r.contains("\"layer\":\"ir.twolevel\"")),
                "{w}"
            );
            let coverage = report::per_layer(t)
                .into_iter()
                .find(|m| m.name == "trace.coverage")
                .unwrap()
                .value;
            assert!((0.8..=1.2).contains(&coverage), "{w}: coverage {coverage}");
        }
    }
}
