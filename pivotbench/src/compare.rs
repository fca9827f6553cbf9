//! Series of runs, the before/after comparator, and noise calibration.
//!
//! A series file holds one JSON line per run:
//! `{"workload": .., "seed": .., "result": <the run's result line>}`.

use crate::json::{self, Value};
use crate::spec::Spec;
use crate::stats::{median, quartiles, sorted_f64, spread};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Runs of one workload in one series, in file order.
#[derive(Default, Debug)]
pub struct Runs {
    pub values: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub incorrect: u64,
}

/// Per workload, in the order the workloads first appear.
pub type Series = Vec<(String, Runs)>;

fn runs_of<'a>(series: &'a mut Series, workload: &str) -> &'a mut Runs {
    let i = match series.iter().position(|(w, _)| w == workload) {
        Some(i) => i,
        None => {
            series.push((workload.to_string(), Runs::default()));
            series.len() - 1
        }
    };
    &mut series[i].1
}

pub fn parse_series(text: &str) -> Result<Series, String> {
    let mut series = Series::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let r = v
            .get("result")
            .ok_or_else(|| format!("line {}: no result", i + 1))?;
        let runs = runs_of(&mut series, workload);
        let count = |k: &str| r.get(k).and_then(Value::as_f64).unwrap_or(0.0) as u64;
        runs.attempted += count("attempted");
        runs.failed += count("failed");
        if r.get("correct").and_then(Value::as_bool) != Some(true) {
            runs.incorrect += 1;
        }
        let metrics = r
            .get("metrics")
            .and_then(Value::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, m) in metrics {
            if let Some(x) = m.get("value").and_then(Value::as_f64) {
                runs.values.entry(name.clone()).or_default().push(x);
            }
        }
    }
    Ok(series)
}

/// Run each seed of every workload, interleaved so slow drift in the
/// machine touches each workload alike, each run in a fresh process.
/// Returns one series line per run.
pub fn series(
    workloads: &[String],
    seeds: std::ops::Range<u64>,
    seconds: u64,
    trace: bool,
) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut text = String::new();
    for seed in seeds {
        for w in workloads {
            let out = Command::new(&exe)
                .args(["run", "--workload", w, "--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .output()
                .map_err(|e| e.to_string())?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            if !out.status.success() || json::parse(last).is_err() {
                return Err(format!(
                    "{w} seed {seed} failed ({}): {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let mut l = String::from("{\"workload\":");
            json::write_str(&mut l, w);
            let _ = writeln!(l, ",\"seed\":{seed},\"result\":{last}}}");
            eprint!("{l}");
            text.push_str(&l);
        }
    }
    Ok(text)
}

#[derive(Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    NoChange,
}

/// The comparator's rule for one metric of one workload. `parent` and
/// `change` are run values in file order; pairs are taken by position.
///
/// - unresolved: a side's spread (interquartile range over median) exceeds
///   the bound, unless every change run beats every parent run;
/// - regression: the change median is worse than the parent median by
///   more than the bound;
/// - gain: at least 10 pairs, the change wins at least 9 in 10 of them
///   (ties count for neither), and the medians differ by more than the
///   parent's interquartile range.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let (p, c) = (sorted_f64(parent), sorted_f64(change));
    if p.is_empty() || c.is_empty() {
        return Verdict::Unresolved;
    }
    let (pm, cm) = (median(&p), median(&c));
    let all_better = c.iter().all(|&x| p.iter().all(|&y| better(x, y)));
    if (spread(parent) > bound || spread(change) > bound) && !all_better {
        return Verdict::Unresolved;
    }
    let worse_by = if lower_is_better { cm - pm } else { pm - cm } / pm.abs();
    if worse_by > bound {
        return Verdict::Regression;
    }
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(&a, &b)| better(b, a))
        .count();
    let (q1, q3) = quartiles(&p);
    if pairs >= 10 && wins * 10 >= pairs * 9 && better(cm, pm) && (cm - pm).abs() > q3 - q1 {
        return Verdict::Gain;
    }
    Verdict::NoChange
}

/// Print one row per (workload, end-to-end metric) and the failed share of
/// each side. Returns whether any row regressed or the change failed more.
pub fn compare(spec: &Spec, parent: &Series, change: &Series) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let _ = writeln!(
        out,
        "{:<16} {:<14} {:>12} {:>12} {:>8} {:>7} {:>7}  verdict",
        "workload", "metric", "parent", "change", "delta", "spread", "bound"
    );
    for (w, p) in parent {
        let Some((_, c)) = change.iter().find(|(cw, _)| cw == w) else {
            let _ = writeln!(out, "{w:<16} missing from the change series");
            bad = true;
            continue;
        };
        for m in &spec.end_to_end {
            let (Some(pv), Some(cv)) = (p.values.get(&m.name), c.values.get(&m.name)) else {
                continue;
            };
            let v = verdict(pv, cv, m.lower_is_better, m.bound);
            bad |= v == Verdict::Regression;
            let (pm, cm) = (median(&sorted_f64(pv)), median(&sorted_f64(cv)));
            let _ = writeln!(
                out,
                "{w:<16} {:<14} {pm:>12.4} {cm:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}%  {v:?}",
                m.name,
                (cm - pm) / pm * 100.0,
                spread(pv).max(spread(cv)) * 100.0,
                m.bound * 100.0,
            );
        }
        let share = |r: &Runs| r.failed as f64 / r.attempted.max(1) as f64;
        bad |= share(c) > share(p) || c.incorrect > p.incorrect;
        let _ = writeln!(
            out,
            "{w:<16} {:<14} {:>12.6} {:>12.6}  (incorrect runs: {} / {})",
            "failed_share",
            share(p),
            share(c),
            p.incorrect,
            c.incorrect
        );
    }
    (out, bad)
}

/// Noise calibration: two sets of `runs` runs per workload on distinct
/// seeds. For each (workload, end-to-end metric) report the first set's
/// median, quartiles and spread, how far the second set's median moved,
/// and whether the metric repeats within its bound (and its spread within
/// a third of it, the margin the benchmark keeps).
pub fn calibrate(spec: &Spec, a: &Series, b: &Series, label: &str) -> (String, String) {
    let mut table = String::new();
    let mut doc = String::from("{\"label\":");
    json::write_str(&mut doc, label);
    doc.push_str(",\"metrics\":[");
    let mut first = true;
    for (w, ra) in a {
        let rb = b.iter().find(|(bw, _)| bw == w).map(|(_, r)| r);
        for m in &spec.end_to_end {
            let Some(va) = ra.values.get(&m.name) else {
                continue;
            };
            let s = sorted_f64(va);
            let (q1, q3) = quartiles(&s);
            let med = median(&s);
            let sp = spread(va);
            let moved = rb
                .and_then(|r| r.values.get(&m.name))
                .map_or(f64::NAN, |vb| {
                    (median(&sorted_f64(vb)) - med).abs() / med.abs()
                });
            let status = if m.name != "setup_s" && sp > m.bound {
                "noisy: replace or drop"
            } else if moved.is_nan() || moved > m.bound {
                "does not repeat: replace or drop"
            } else if m.name != "setup_s" && sp > m.bound / 3.0 {
                "repeats, spread above a third of the bound"
            } else {
                "repeats"
            };
            let _ = writeln!(
                table,
                "{w:<16} {:<14} median {med:>12.4}  spread {:>5.1}%  moved {:>5.1}%  bound {:>4.1}%  {status}",
                m.name,
                sp * 100.0,
                moved * 100.0,
                m.bound * 100.0
            );
            if !first {
                doc.push(',');
            }
            first = false;
            doc.push_str("\n{\"workload\":");
            json::write_str(&mut doc, w);
            doc.push_str(",\"metric\":");
            json::write_str(&mut doc, &m.name);
            for (k, x) in [
                ("median", med),
                ("q1", q1),
                ("q3", q3),
                ("spread", sp),
                ("moved", moved),
                ("bound", m.bound),
            ] {
                let _ = write!(doc, ",\"{k}\":");
                json::write_num(&mut doc, x);
            }
            let _ = write!(doc, ",\"n\":{},\"status\":", va.len());
            json::write_str(&mut doc, status);
            doc.push('}');
        }
    }
    doc.push_str("\n]}\n");
    (table, doc)
}

pub fn load_series(path: &Path) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_series(&text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(w: &str, v: f64, failed: u64) -> String {
        format!(
            "{{\"workload\":\"{w}\",\"seed\":1,\"result\":{{\"correct\":true,\"attempted\":100,\"failed\":{failed},\"metrics\":{{\"op_p50_us\":{{\"value\":{v},\"unit\":\"us\"}}}}}}}}\n"
        )
    }

    #[test]
    fn verdicts_on_synthetic_runs() {
        let parent: Vec<f64> = (0..10).map(|i| 100.0 + f64::from(i % 3)).collect();
        // 20% faster in every pair: a gain.
        let fast: Vec<f64> = parent.iter().map(|x| x * 0.8).collect();
        assert_eq!(verdict(&parent, &fast, true, 0.1), Verdict::Gain);
        // Higher is better: the same numbers are a regression.
        assert_eq!(verdict(&parent, &fast, false, 0.1), Verdict::Regression);
        // 20% slower: a regression past a 10% bound, none past a 25% one.
        let slow: Vec<f64> = parent.iter().map(|x| x * 1.2).collect();
        assert_eq!(verdict(&parent, &slow, true, 0.1), Verdict::Regression);
        assert_eq!(verdict(&parent, &slow, true, 0.25), Verdict::NoChange);
        // Fewer than ten pairs never make a gain.
        assert_eq!(
            verdict(&parent[..9], &fast[..9], true, 0.1),
            Verdict::NoChange
        );
        // Wins in only 8 of 10 pairs: no gain.
        let mut mixed = fast.clone();
        mixed[0] = 105.0;
        mixed[1] = 105.0;
        assert_eq!(verdict(&parent, &mixed, true, 0.25), Verdict::NoChange);
        // Too noisy to tell...
        let noisy: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 50.0 } else { 150.0 })
            .collect();
        assert_eq!(verdict(&parent, &noisy, true, 0.1), Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let clear: Vec<f64> = (0..10)
            .map(|i| if i % 2 == 0 { 10.0 } else { 30.0 })
            .collect();
        assert_eq!(verdict(&parent, &clear, true, 0.1), Verdict::Gain);
        // Within noise and within the bound: no change.
        assert_eq!(verdict(&parent, &parent, true, 0.1), Verdict::NoChange);
    }

    #[test]
    fn compare_flags_regressions_and_failures() {
        let spec =
            Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json")).unwrap();
        let parent = parse_series(
            &(0..10)
                .map(|_| line("apply-sweep", 100.0, 0))
                .collect::<String>(),
        )
        .unwrap();
        let same = parse_series(
            &(0..10)
                .map(|_| line("apply-sweep", 101.0, 0))
                .collect::<String>(),
        )
        .unwrap();
        let (table, bad) = compare(&spec, &parent, &same);
        assert!(!bad, "{table}");
        assert!(table.contains("NoChange"));
        let slow = parse_series(
            &(0..10)
                .map(|_| line("apply-sweep", 150.0, 0))
                .collect::<String>(),
        )
        .unwrap();
        let (table, bad) = compare(&spec, &parent, &slow);
        assert!(bad && table.contains("Regression"), "{table}");
        let failing = parse_series(
            &(0..10)
                .map(|_| line("apply-sweep", 100.0, 1))
                .collect::<String>(),
        )
        .unwrap();
        assert!(compare(&spec, &parent, &failing).1);
    }
}
