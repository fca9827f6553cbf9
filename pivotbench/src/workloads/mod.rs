//! The four workloads. Each builds its inputs from the seed, times its
//! set-up several times, measures for the requested number of seconds, and
//! checks its outputs against an oracle the measured code does not share.

use crate::layers::Trace;
use std::time::Instant;

pub mod apply;
pub mod search;
pub mod serve;
pub mod undo;

/// Set-up runs per benchmark run: at least `SETUP_REPS`, and more (up to
/// `SETUP_MAX_REPS`) until they add up to `Scale::setup_min_ns`, so a
/// set-up of a few milliseconds still reports a steady median.
const SETUP_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;

/// How far past the deadline a closed loop may run to reach
/// `Scale::min_samples`.
const OVERRUN_S: f64 = 60.0;

pub const NAMES: [&str; 4] = [
    "undo-any-order",
    "apply-sweep",
    "search-reject",
    "serve-durable",
];

/// Input sizes. `FULL` is what the benchmark measures; `SMOKE` shrinks the
/// programs so the whole suite runs in seconds under `cargo test`.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub undo_fragments: usize,
    pub undo_chains: usize,
    pub undo_applied: usize,
    pub apply_fragments: usize,
    pub apply_chains: usize,
    pub apply_programs: usize,
    pub apply_cap: usize,
    pub search_fragments: usize,
    pub search_moves: u64,
    pub serve_fragments: usize,
    pub serve_live: usize,
    pub serve_session_len: usize,
    pub serve_rate: u64,
    pub setup_min_ns: u64,
    /// Closed loops keep going past the deadline until they have this many
    /// latency samples, so the tail percentile has ten or more beyond it.
    pub min_samples: usize,
}

pub const FULL: Scale = Scale {
    undo_fragments: 220,
    undo_chains: 4,
    undo_applied: 200,
    apply_fragments: 64,
    apply_chains: 2,
    apply_programs: 4,
    apply_cap: 60,
    search_fragments: 16,
    search_moves: 5_000,
    serve_fragments: 8,
    serve_live: 32,
    serve_session_len: 200,
    serve_rate: 1_000,
    setup_min_ns: 500_000_000,
    min_samples: 1_000,
};

pub const SMOKE: Scale = Scale {
    undo_fragments: 24,
    undo_chains: 1,
    undo_applied: 24,
    apply_fragments: 12,
    apply_chains: 1,
    apply_programs: 2,
    apply_cap: 12,
    search_fragments: 16,
    search_moves: 2_000,
    serve_fragments: 4,
    serve_live: 4,
    serve_session_len: 60,
    serve_rate: 2_000,
    setup_min_ns: 0,
    min_samples: 200,
};

/// One run's request.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
}

/// What a workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted and failed (an error reply, a refused request).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means the outputs are correct.
    pub wrong: Vec<String>,
    /// Latencies, operations and busy time, by second of measurement.
    pub windows: Vec<Window>,
    /// The percentile `op_tail_us` reports: the highest that repeats from
    /// run to run on this workload (see the README).
    pub tail_q: f64,
    /// Duration of each set-up repetition, nanoseconds.
    pub setup_ns: Vec<u64>,
    /// Peak resident set of the process doing the work, KiB.
    pub peak_rss_kb: u64,
    pub trace: Option<Trace>,
}

impl Outcome {
    /// Count a failed operation; the first few are described on stderr.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failed <= 5 {
            eprintln!("pivotbench: failed: {what}");
        }
    }
}

pub fn run(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "undo-any-order" => undo::run(p),
        "apply-sweep" => apply::run(p),
        "search-reject" => search::run(p),
        "serve-durable" => serve::run(p),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Independent stream `i` of `seed` (splitmix64 finalizer).
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_add(1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Time the set-up as often as `SETUP_REPS`, `min_ns` and
/// `SETUP_MAX_REPS` ask. Keeps the last result.
pub fn timed_setup<T>(
    out: &mut Outcome,
    min_ns: u64,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<T, String> {
    let mut last = None;
    let mut total = 0;
    while out.setup_ns.len() < SETUP_REPS || (total < min_ns && out.setup_ns.len() < SETUP_MAX_REPS)
    {
        drop(last.take());
        let t0 = Instant::now();
        let v = setup()?;
        let ns = crate::layers::elapsed_ns(t0);
        out.setup_ns.push(ns);
        total += ns;
        last = Some(v);
    }
    last.ok_or_else(|| "no set-up ran".to_string())
}

/// `VmHWM` (peak resident set, KiB) of process `pid`, or of this process.
pub fn vm_hwm_kb(pid: Option<u32>) -> Result<u64, String> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

/// One second of measurement.
#[derive(Debug, Default)]
pub struct Window {
    /// Latency of each measured operation that started in it, ns.
    pub lat_ns: Vec<u64>,
    /// Operations counted by `ops_per_s`, and the time the loop was busy.
    pub ops: u64,
    pub busy_ns: u64,
}

/// Deadline and per-second bookkeeping for the closed loops.
pub struct Meter {
    start: Instant,
    seconds: f64,
    min_samples: usize,
    windows: Vec<Window>,
    samples: usize,
}

impl Meter {
    pub fn start(p: &Params) -> Meter {
        Meter {
            start: Instant::now(),
            seconds: p.seconds,
            min_samples: p.scale.min_samples,
            windows: Vec::new(),
            samples: 0,
        }
    }

    /// Account a step that started at `t0` and took `ns`: busy time, and
    /// optionally an operation and a latency sample.
    pub fn record(&mut self, t0: Instant, ns: u64, op: bool, sample: bool) {
        let i = t0.saturating_duration_since(self.start).as_secs() as usize;
        if self.windows.len() <= i {
            self.windows.resize_with(i + 1, Window::default);
        }
        let w = &mut self.windows[i];
        w.busy_ns += ns;
        w.ops += u64::from(op);
        if sample {
            w.lat_ns.push(ns);
            self.samples += 1;
        }
    }

    /// Measured long enough, with enough samples for the tail percentile
    /// (or so long past the deadline that the run must end without them).
    pub fn done(&self) -> bool {
        let t = self.start.elapsed().as_secs_f64();
        (self.samples >= self.min_samples && t >= self.seconds) || t >= self.seconds + OVERRUN_S
    }

    pub fn finish(self) -> Vec<Window> {
        self.windows
    }
}
