//! `BENCHMARK.json`: the workloads, the metrics and their regression
//! bounds, read and checked against the limits the file must keep.

use crate::json::{self, Value};
use std::path::Path;

pub struct EndToEnd {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub struct Spec {
    pub workloads: Vec<String>,
    pub run_seconds: u64,
    pub end_to_end: Vec<EndToEnd>,
    /// Read by the schema test, which checks it against what runs print.
    #[cfg_attr(not(test), allow(dead_code))]
    pub per_layer: Vec<String>,
}

fn valid_name(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 64
        && s.as_bytes()[0].is_ascii_alphanumeric()
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.' || b == b'-')
}

fn valid_unit(s: &str) -> bool {
    !s.is_empty()
        && s.len() <= 16
        && s.bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn keys(v: &Value, want: &[&str], what: &str) -> Result<(), String> {
    let obj = v
        .as_object()
        .ok_or_else(|| format!("{what} is not an object"))?;
    let mut have: Vec<&str> = obj.keys().map(String::as_str).collect();
    let mut want = want.to_vec();
    have.sort_unstable();
    want.sort_unstable();
    if have != want {
        return Err(format!("{what} has keys {have:?}, expected {want:?}"));
    }
    Ok(())
}

fn str_of<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a str, String> {
    v.get(key)
        .and_then(Value::as_str)
        .ok_or_else(|| format!("{what}: `{key}` is not a string"))
}

fn list<'a>(v: &'a Value, key: &str, range: (usize, usize)) -> Result<&'a [Value], String> {
    let l = v
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("`{key}` is not a list"))?;
    if l.len() < range.0 || l.len() > range.1 {
        return Err(format!(
            "`{key}` has {} entries, allowed {}..={}",
            l.len(),
            range.0,
            range.1
        ));
    }
    Ok(l)
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Spec::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Spec, String> {
        if text.len() > 64 * 1024 {
            return Err("larger than 64 KiB".into());
        }
        let v = json::parse(text)?;
        keys(
            &v,
            &[
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer",
            ],
            "the file",
        )?;
        let command = list(&v, "command", (1, 32))?;
        if command.iter().any(|c| {
            c.as_str()
                .is_none_or(|s| s.len() > 200 || s.starts_with('/'))
        }) {
            return Err(
                "`command` entries must be relative strings of at most 200 characters".into(),
            );
        }
        for p in list(&v, "paths", (1, 16))? {
            let p = p.as_str().ok_or("`paths` entries must be strings")?;
            let ok = !p.is_empty()
                && p.len() <= 200
                && !p.starts_with('/')
                && !p.split('/').any(|c| c == "..")
                && p.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b"_.-/".contains(&b));
            if !ok {
                return Err(format!("bad path `{p}`"));
            }
        }
        let run_seconds =
            v.get("run_seconds")
                .and_then(Value::as_f64)
                .filter(|s| s.fract() == 0.0 && (1.0..=60.0).contains(s))
                .ok_or("`run_seconds` must be a whole number from 1 to 60")? as u64;
        let mut names = Vec::new();
        let mut workloads = Vec::new();
        for w in list(&v, "workloads", (2, 8))? {
            keys(w, &["name", "why"], "a workload")?;
            let name = str_of(w, "name", "workload")?;
            let why = str_of(w, "why", name)?;
            if why.is_empty() || why.len() > 200 || why.contains('\n') {
                return Err(format!(
                    "{name}: `why` must be one line of at most 200 characters"
                ));
            }
            names.push(name.to_string());
            workloads.push(name.to_string());
        }
        let mut end_to_end = Vec::new();
        for m in list(&v, "end_to_end", (1, 16))? {
            keys(
                m,
                &["name", "unit", "better", "bound"],
                "an end-to-end metric",
            )?;
            let name = str_of(m, "name", "metric")?;
            let unit = str_of(m, "unit", name)?;
            let better = str_of(m, "better", name)?;
            let bound = m
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| (0.0..=0.25).contains(b))
                .ok_or_else(|| format!("{name}: `bound` must be a number in 0..=0.25"))?;
            if !valid_unit(unit) || !matches!(better, "lower" | "higher") {
                return Err(format!("{name}: bad unit or `better`"));
            }
            names.push(name.to_string());
            end_to_end.push(EndToEnd {
                name: name.to_string(),
                unit: unit.to_string(),
                lower_is_better: better == "lower",
                bound,
            });
        }
        match end_to_end.iter().find(|m| m.name == "setup_s") {
            Some(m) if m.unit == "s" && m.lower_is_better => {}
            _ => return Err("`setup_s` (unit s, lower is better) is required".into()),
        }
        let mut per_layer = Vec::new();
        for m in list(&v, "per_layer", (1, 128))? {
            keys(m, &["name", "unit", "better"], "a per-layer metric")?;
            let name = str_of(m, "name", "metric")?;
            let unit = str_of(m, "unit", name)?;
            let better = str_of(m, "better", name)?;
            if !valid_unit(unit) || !matches!(better, "lower" | "higher") {
                return Err(format!("{name}: bad unit or `better`"));
            }
            names.push(name.to_string());
            per_layer.push(name.to_string());
        }
        if let Some(bad) = names.iter().find(|n| !valid_name(n)) {
            return Err(format!("bad name `{bad}`"));
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("name `{}` is used twice", w[0]));
        }
        Ok(Spec {
            workloads,
            run_seconds,
            end_to_end,
            per_layer,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::Trace;
    use crate::report;
    use crate::workloads::{Outcome, NAMES};

    fn repo_spec() -> Spec {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Spec::load(&path).unwrap()
    }

    #[test]
    fn benchmark_json_keeps_its_limits_and_matches_the_binary() {
        let spec = repo_spec();
        assert_eq!(spec.workloads, NAMES);
        // Every declared metric is one the binary prints, and back.
        let o = Outcome {
            windows: vec![crate::workloads::Window {
                lat_ns: (1..=2_000).collect(),
                ops: 2_000,
                busy_ns: 1_000_000,
            }],
            setup_ns: vec![1],
            peak_rss_kb: 1,
            tail_q: 0.9,
            ..Default::default()
        };
        let printed: Vec<String> = report::end_to_end(&o)
            .unwrap()
            .into_iter()
            .map(|m| m.name)
            .collect();
        let declared: Vec<&str> = spec.end_to_end.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(printed, declared);
        let printed: Vec<String> = report::per_layer(&Trace::default())
            .into_iter()
            .map(|m| m.name)
            .collect();
        assert_eq!(printed, spec.per_layer);
        let max_bound = spec.end_to_end.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(
            spec.end_to_end
                .iter()
                .find(|m| m.name == "setup_s")
                .map(|m| m.bound),
            Some(max_bound)
        );
    }

    #[test]
    fn rejects_files_outside_the_limits() {
        let good = r#"{"command": ["bash", "b/run.sh"], "paths": ["b"], "run_seconds": 5,
            "workloads": [{"name": "w1", "why": "one"}, {"name": "w2", "why": "two"}],
            "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "l.n", "unit": "count", "better": "lower"}]}"#;
        assert!(Spec::parse(good).is_ok());
        for (from, to) in [
            ("\"run_seconds\"", "\"extra\": 1, \"run_seconds\""),
            ("\"run_seconds\": 5", "\"run_seconds\": 61"),
            ("\"setup_s\"", "\"setup s\""),
            ("\"bound\": 0.25", "\"bound\": 0.5"),
            ("[\"b\"]", "[\"../b\"]"),
            ("\"b/run.sh\"", "\"/b/run.sh\""),
            (
                "{\"name\": \"w2\", \"why\": \"two\"}",
                "{\"name\": \"w1\", \"why\": \"two\"}",
            ),
            (", {\"name\": \"w2\", \"why\": \"two\"}", ""),
            ("\"unit\": \"count\"", "\"unit\": \"µs\""),
        ] {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "pattern `{from}` not found");
            assert!(Spec::parse(&bad).is_err(), "accepted {to}");
        }
    }
}
