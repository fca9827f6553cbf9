//! The result line and the per-layer records.

use crate::json;
use crate::layers::{Trace, IR_BREAKDOWN, LEAVES, TIMED_EVERYWHERE};
use crate::stats::{ns_to_us, percentile};
use crate::workloads::{Outcome, Window};

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn sorted(v: &[u64]) -> Vec<u64> {
    let mut s = v.to_vec();
    s.sort_unstable();
    s
}

/// Median without the tail rule: a median is meaningful from one sample.
fn median_ns(v: &[u64]) -> Option<u64> {
    let s = sorted(v);
    s.get(s.len().saturating_sub(1) / 2).copied()
}

/// A window (or a set-up) counts as calm when its median (or duration) is
/// within this factor of the floor: the value a tenth of the way up the
/// sorted windows (or set-ups).
const CALM_TOLERANCE: f64 = 1.2;

/// Windows with fewer latency samples have no median worth comparing.
const MIN_WINDOW_SAMPLES: usize = 20;

fn floor_of(sorted: &[u64]) -> Option<f64> {
    sorted
        .get(sorted.len() / 10)
        .map(|&v| v as f64 * CALM_TOLERANCE)
}

/// The calm windows of a run. The machine this runs on is shared: for
/// seconds at a time one CPU runs the same code about 1.5 times slower,
/// and such stretches move every percentile of a whole run. Interference
/// only ever adds time, so the windows whose median latency is near the
/// floor are where the code ran at its own speed. A change that slows
/// every operation slows every window and still shows. An open loop
/// reports a single window, since a stall there is latency its users see.
pub fn calm(windows: &[Window]) -> Vec<&Window> {
    let median = |w: &Window| median_ns(&w.lat_ns).filter(|_| w.lat_ns.len() >= MIN_WINDOW_SAMPLES);
    let medians = sorted(&windows.iter().filter_map(median).collect::<Vec<_>>());
    let Some(limit) = floor_of(&medians) else {
        return windows.iter().collect();
    };
    windows
        .iter()
        .filter(|w| median(w).is_some_and(|m| m as f64 <= limit))
        .collect()
}

/// The median of the calm set-ups, for the same reason.
fn calm_median(samples: &[u64]) -> Option<u64> {
    let s = sorted(samples);
    let limit = floor_of(&s)?;
    let calm: Vec<u64> = s.into_iter().filter(|&v| v as f64 <= limit).collect();
    median_ns(&calm)
}

/// The end-to-end metrics, measured with tracing off, over the calm
/// windows.
pub fn end_to_end(o: &Outcome) -> Result<Vec<Metric>, String> {
    let calm = calm(&o.windows);
    let lat = sorted(
        &calm
            .iter()
            .flat_map(|w| w.lat_ns.iter().copied())
            .collect::<Vec<_>>(),
    );
    let p50 = median_ns(&lat).ok_or("no operation completed")?;
    let tail = percentile(&lat, o.tail_q).ok_or_else(|| {
        format!(
            "{} operations leave fewer than ten beyond the {} quantile",
            lat.len(),
            o.tail_q
        )
    })?;
    let ops: u64 = calm.iter().map(|w| w.ops).sum();
    let busy: u64 = calm.iter().map(|w| w.busy_ns).sum();
    if busy == 0 {
        return Err("no busy time measured".into());
    }
    let setup = calm_median(&o.setup_ns).ok_or("no set-up ran")?;
    Ok(vec![
        metric("op_p50_us", ns_to_us(p50), "us"),
        metric("op_tail_us", ns_to_us(tail), "us"),
        metric("ops_per_s", ops as f64 * 1e9 / busy as f64, "op/s"),
        metric("setup_s", setup as f64 / 1e9, "s"),
        metric("peak_rss_mb", o.peak_rss_kb as f64 / 1024.0, "MB"),
    ])
}

/// The per-layer metrics of a traced run. Every workload prints the same
/// names; a layer the workload never enters reports zero counts and
/// shares. Latencies are reported only for layers every workload enters.
pub fn per_layer(t: &Trace) -> Vec<Metric> {
    let e2e: u64 = t.traced_ops.iter().sum();
    let mut m = Vec::new();
    for layer in LEAVES {
        let n = t.spans.get(layer).map_or(0, Vec::len);
        m.push(metric(format!("{layer}.n"), n as f64, "count"));
        m.push(metric(
            format!("{layer}.share"),
            ratio(t.total(layer), e2e),
            "ratio",
        ));
    }
    for layer in TIMED_EVERYWHERE {
        let p50 = t.spans.get(layer).and_then(|v| median_ns(v)).unwrap_or(0);
        m.push(metric(format!("{layer}.p50_us"), ns_to_us(p50), "us"));
    }
    let twolevel = t.total("ir.twolevel");
    for layer in IR_BREAKDOWN {
        m.push(metric(
            format!("{layer}.share_of_twolevel"),
            ratio(t.total(layer), twolevel),
            "ratio",
        ));
    }
    let c = &t.counts;
    let leaves: u64 = LEAVES.iter().map(|l| t.total(l)).sum();
    let overhead = match (median_ns(&t.traced_ops), median_ns(&t.untraced_ops)) {
        (Some(a), Some(b)) if b > 0 => a as f64 / b as f64 - 1.0,
        _ => 0.0,
    };
    m.extend([
        metric(
            "core.catalog.find.hit_ratio",
            ratio(c.find_hits, c.finds),
            "ratio",
        ),
        metric(
            "core.region.in_scope_ratio",
            ratio(c.in_scope, c.candidates),
            "ratio",
        ),
        metric(
            "core.safety.unsafe_ratio",
            ratio(c.unsafe_found, c.safety_checks),
            "ratio",
        ),
        metric("core.undo.cascade_len", ratio(c.removed, c.undos), "count"),
        metric("search.noopp_ratio", ratio(c.noopp_moves, c.moves), "ratio"),
        metric(
            "search.accept_ratio",
            ratio(c.accepted, c.opp_moves),
            "ratio",
        ),
        metric(
            "core.txn.reject.fallback_ratio",
            ratio(c.reject_fallbacks, c.rejects),
            "ratio",
        ),
        metric("client.late_ratio", ratio(c.late_sends, c.sends), "ratio"),
        metric("trace.ops", t.traced_ops.len() as f64, "count"),
        metric("trace.coverage", ratio(leaves, e2e), "ratio"),
        metric("trace.overhead", overhead, "ratio"),
        metric("trace.replay_errors", t.replay_errors as f64, "count"),
    ]);
    m
}

/// The `{op, layer, n, p50, p99, share}` records of a traced run, one JSON
/// line each (latencies in microseconds; a p99 without ten samples beyond
/// it is `null`). `share` is the layer's total over the traced operations'
/// end-to-end total; for the `ir.twolevel` breakdown it is the share of
/// `ir.twolevel`.
pub fn records(op: &str, t: &Trace) -> Vec<String> {
    let e2e: u64 = t.traced_ops.iter().sum();
    let twolevel = t.total("ir.twolevel");
    let mut lines = Vec::new();
    let mut row = |layer: &str, v: &[u64], base: u64| {
        let s = sorted(v);
        let mut l = String::from("{\"op\":");
        json::write_str(&mut l, op);
        l.push_str(",\"layer\":");
        json::write_str(&mut l, layer);
        l.push_str(&format!(",\"n\":{},\"p50\":", s.len()));
        json::write_num(&mut l, median_ns(&s).map_or(f64::NAN, ns_to_us));
        l.push_str(",\"p99\":");
        json::write_num(&mut l, percentile(&s, 0.99).map_or(f64::NAN, ns_to_us));
        l.push_str(",\"share\":");
        json::write_num(&mut l, ratio(s.iter().sum(), base));
        l.push('}');
        lines.push(l);
    };
    row("end_to_end", &t.traced_ops, e2e);
    for layer in LEAVES {
        if let Some(v) = t.spans.get(layer) {
            row(layer, v, e2e);
        }
    }
    for layer in IR_BREAKDOWN {
        if let Some(v) = t.spans.get(layer) {
            row(layer, v, twolevel);
        }
    }
    lines
}

/// The last line of a run: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut l = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            l.push(',');
        }
        json::write_str(&mut l, &m.name);
        l.push_str(":{\"value\":");
        json::write_num(&mut l, m.value);
        l.push_str(",\"unit\":");
        json::write_str(&mut l, m.unit);
        l.push('}');
    }
    l.push_str("}}");
    l
}
