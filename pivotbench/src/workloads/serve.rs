//! `serve-durable`: durable requests to the multi-tenant daemon, the built
//! `pivot serve` binary in a child process, over one Unix-socket
//! connection. Programs are small, so journal fsyncs and the wire and
//! dispatch path carry the cost; fingerprint reads sit beside the writes.
//!
//! Open loop at `serve_rate` requests per second: a sender thread writes
//! each request at its due time and this thread reads the replies in FIFO
//! order. Latency runs from the due time, so a stall also counts against
//! the requests queued behind it. `serve_live` sessions are open at a
//! time; each runs `serve_session_len` requests (open, 80% apply or undo
//! with at most 12 records active, 20% fingerprint, close) and is then
//! replaced, so the daemon's automatic journal compaction (every 64
//! commits by default) fires during the run.
//!
//! Oracle: before set-up, every script runs on a local `Session` replica,
//! which records the expected xform ids, `undone` lists and fingerprints;
//! every reply must match. Set-up is the daemon's start, until it listens.

use super::{mix, timed_setup, vm_hwm_kb, Outcome, Params, Window};
use crate::json::{self, Value};
use crate::layers::{elapsed_ns, fork_for_replay, replay_apply, replay_undo, Trace};
use crate::tempdir::TempDir;
use pivot_lang::printer::to_source;
use pivot_undo::engine::Session;
use pivot_undo::snapshot::fingerprint;
use pivot_undo::{Journal, Strategy, XformId, XformKind, ALL_KINDS};
use pivot_workload::{gen_program, WorkloadCfg};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// `op_tail_us` is the 80th percentile. Over 20 runs on a shared 2-vCPU
/// VM the spread of 10 runs was typically 8.5% for it, and 17% (25% at
/// worst) for the 90th.
const TAIL_Q: f64 = 0.80;

/// Most records a session keeps active; beyond it every write is an undo.
const MAX_ACTIVE: usize = 12;

/// The daemon's default compaction interval (`--checkpoint-every`).
const CHECKPOINT_EVERY: u64 = 64;

const IO_TIMEOUT: Duration = Duration::from_secs(30);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    Open,
    Apply(XformKind),
    Undo(u32),
    Fingerprint,
    Close,
}

impl Op {
    fn writes(self) -> bool {
        matches!(self, Op::Apply(_) | Op::Undo(_))
    }
}

struct Script {
    name: String,
    source: String,
}

/// One request on the wire, with the reply the replica predicts.
struct Request {
    script: usize,
    op: Op,
    line: String,
    expect: Expect,
}

/// The whole run, decided before set-up.
struct Plan {
    scripts: Vec<Script>,
    requests: Vec<Request>,
}

fn request_line(name: &str, op: Op, source: &str) -> String {
    let mut l = String::from("{\"req\":");
    let (req, extra) = match op {
        Op::Open => {
            let mut src = String::new();
            json::write_str(&mut src, source);
            ("open", format!(",\"source\":{src}"))
        }
        Op::Apply(k) => ("apply", format!(",\"kind\":\"{}\"", k.abbrev())),
        Op::Undo(t) => ("undo", format!(",\"target\":{t}")),
        Op::Fingerprint => ("fingerprint", String::new()),
        Op::Close => ("close", String::new()),
    };
    json::write_str(&mut l, req);
    l.push_str(",\"session\":");
    json::write_str(&mut l, name);
    l.push_str(&extra);
    l.push_str("}\n");
    l
}

fn num(n: u64) -> Value {
    Value::Num(n as f64)
}

type Expect = Vec<(&'static str, Value)>;

/// Apply the first `kind` opportunity on the replica; `None` when there is
/// none (or the engine refuses it), so the plan never sends the request.
fn replica_apply(s: &mut Session, kind: XformKind) -> Option<Expect> {
    let opp = s.find(kind).into_iter().next()?;
    let id = s.apply(&opp).ok()?;
    Some(vec![
        ("xform", num(u64::from(id.0))),
        ("history_len", num(s.history.records.len() as u64)),
    ])
}

fn replica_undo(s: &mut Session, target: u32) -> Result<Expect, String> {
    let report = s
        .undo(XformId(target), Strategy::Regional)
        .map_err(|e| format!("replica refused undo {target}: {e}"))?;
    Ok(vec![
        (
            "undone",
            Value::Array(report.undone.iter().map(|x| num(u64::from(x.0))).collect()),
        ),
        ("candidates_considered", num(report.candidates_considered)),
    ])
}

fn replica_read(s: &Session) -> Expect {
    vec![
        (
            "fingerprint",
            Value::Str(format!("{:016x}", fingerprint(s))),
        ),
        ("history_len", num(s.history.records.len() as u64)),
        ("active", num(s.history.active_len() as u64)),
    ]
}

/// A live session while the plan is being built.
struct Live {
    script: usize,
    replica: Session,
    sent: usize,
}

fn build_plan(p: &Params, total: usize) -> Result<Plan, String> {
    let cfg = WorkloadCfg {
        fragments: p.scale.serve_fragments,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(mix(p.seed, 7));
    let mut plan = Plan {
        scripts: Vec::new(),
        requests: Vec::with_capacity(total),
    };
    let mut live: Vec<Live> = Vec::new();
    let mut kinds = ALL_KINDS.to_vec();
    while plan.requests.len() < total {
        let mut slot = rng.gen_range(0..p.scale.serve_live);
        if slot >= live.len() || live[slot].sent >= p.scale.serve_session_len {
            let j = plan.scripts.len();
            let source = to_source(&gen_program(mix(p.seed, 1_000 + j as u64), &cfg));
            let replica = Session::from_source(&source).map_err(|e| e.to_string())?;
            plan.scripts.push(Script {
                name: format!("b{:x}-{j}", p.seed),
                source,
            });
            let fresh = Live {
                script: j,
                replica,
                sent: 0,
            };
            if slot >= live.len() {
                slot = live.len();
                live.push(fresh);
            } else {
                live[slot] = fresh;
            }
        }
        let l = &mut live[slot];
        let s = &mut l.replica;
        let script = &plan.scripts[l.script];
        let active: Vec<u32> = s.history.active().map(|r| r.id.0).collect();
        let (op, expect) = if l.sent == 0 {
            (Op::Open, vec![("session", Value::Str(script.name.clone()))])
        } else if l.sent + 1 == p.scale.serve_session_len {
            (Op::Close, vec![("closed", Value::Str(script.name.clone()))])
        } else if rng.gen_range(0..5) == 0 {
            (Op::Fingerprint, replica_read(s))
        } else if rng.gen_range(0..MAX_ACTIVE) < active.len() {
            let t = active[rng.gen_range(0..active.len())];
            (Op::Undo(t), replica_undo(s, t)?)
        } else {
            kinds.shuffle(&mut rng);
            match kinds
                .iter()
                .find_map(|&k| replica_apply(s, k).map(|e| (Op::Apply(k), e)))
            {
                Some(applied) => applied,
                None if !active.is_empty() => {
                    let t = active[rng.gen_range(0..active.len())];
                    (Op::Undo(t), replica_undo(s, t)?)
                }
                None => (Op::Fingerprint, replica_read(s)),
            }
        };
        plan.requests.push(Request {
            script: l.script,
            op,
            line: request_line(&script.name, op, &script.source),
            expect,
        });
        l.sent += 1;
    }
    Ok(plan)
}

/// The path of the `pivot` binary the run drives: beside this executable,
/// where building both into one target directory puts it.
fn sibling_pivot() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    Ok(exe.with_file_name("pivot"))
}

/// A `pivot serve` child in its own scratch directory. Dropping it kills
/// the child if it is still running and waits for it.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    sock: PathBuf,
    // Holds the journals and the socket; removed after the child is reaped.
    _dir: TempDir,
}

impl Daemon {
    fn spawn(bin: &Path) -> Result<Daemon, String> {
        if !bin.is_file() {
            return Err(format!(
                "{} is missing; build it with `cargo build --release -p pivot-cli` \
                 into the same target directory",
                bin.display()
            ));
        }
        let dir = TempDir::new("serve").map_err(|e| e.to_string())?;
        let bin = std::fs::canonicalize(bin).map_err(|e| e.to_string())?;
        // Relative paths under the child's working directory keep the
        // socket path short.
        let mut child = Command::new(&bin)
            .args(["serve", "--journal-dir", "journals", "--uds", "serve.sock"])
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(dir.path())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let Some(out) = child.stdout.take() else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("daemon stdout was not captured".into());
        };
        let mut d = Daemon {
            child,
            stdout: BufReader::new(out),
            sock: dir.path().join("serve.sock"),
            _dir: dir,
        };
        // The daemon prints its addresses once it listens.
        let mut line = String::new();
        loop {
            line.clear();
            match d.stdout.read_line(&mut line) {
                Ok(0) | Err(_) => return Err("daemon exited before listening".into()),
                Ok(_) if line.starts_with("listening uds") => return Ok(d),
                Ok(_) => {}
            }
        }
    }

    fn connect(&self) -> Result<UnixStream, String> {
        let s = UnixStream::connect(&self.sock)
            .map_err(|e| format!("connect {}: {e}", self.sock.display()))?;
        s.set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| s.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| e.to_string())?;
        Ok(s)
    }

    /// Peak resident set, then a graceful drain.
    fn shutdown(mut self) -> Result<u64, String> {
        let rss = vm_hwm_kb(Some(self.child.id()));
        let mut s = self.connect()?;
        s.write_all(b"{\"req\":\"shutdown\"}\n")
            .map_err(|e| e.to_string())?;
        let mut reply = String::new();
        BufReader::new(&s)
            .read_line(&mut reply)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + IO_TIMEOUT;
        loop {
            match self.child.try_wait().map_err(|e| e.to_string())? {
                Some(st) if st.success() => break,
                Some(st) => return Err(format!("daemon exited with {st}")),
                None if Instant::now() > deadline => return Err("daemon did not drain".into()),
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        rss
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// When each reply arrived, and when its request was due and sent.
struct Timing {
    due: Instant,
    sent: Instant,
    ack: Instant,
}

fn wire(d: &Daemon, plan: &Plan, rate: u64) -> Result<(Vec<String>, Vec<Timing>), String> {
    let stream = d.connect()?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let period = Duration::from_nanos(1_000_000_000 / rate);
    let start = Instant::now() + Duration::from_millis(5);
    let due = |i: usize| start + period * i as u32;
    let (tx, rx) = mpsc::channel::<Instant>();
    let n = plan.requests.len();
    std::thread::scope(|sc| {
        let sender = sc.spawn(move || -> Result<(), String> {
            for (i, r) in plan.requests.iter().enumerate() {
                let now = Instant::now();
                if due(i) > now {
                    std::thread::sleep(due(i) - now);
                }
                let sent = Instant::now();
                writer
                    .write_all(r.line.as_bytes())
                    .map_err(|e| format!("send {i}: {e}"))?;
                if tx.send(sent).is_err() {
                    break; // the reader gave up
                }
            }
            Ok(())
        });
        let mut replies = Vec::with_capacity(n);
        let mut times = Vec::with_capacity(n);
        let mut received = Ok(());
        for i in 0..n {
            let mut line = String::new();
            match reader.read_line(&mut line) {
                Ok(0) => received = Err(format!("daemon closed the connection at reply {i}")),
                Err(e) => received = Err(format!("reply {i}: {e}")),
                Ok(_) => {}
            }
            let ack = Instant::now();
            if received.is_err() {
                break;
            }
            let Ok(sent) = rx.recv() else {
                received = Err("sender stopped".into());
                break;
            };
            replies.push(line);
            times.push(Timing {
                due: due(i),
                sent,
                ack,
            });
        }
        drop(rx);
        if received.is_err() {
            // Unblock a sender stuck on a full socket.
            let _ = reader.get_ref().shutdown(std::net::Shutdown::Both);
        }
        let sent = sender.join().map_err(|_| "sender panicked".to_string())?;
        received.and(sent)?;
        Ok((replies, times))
    })
}

/// Compare a reply with the replica's prediction. `Err((true, _))` is a
/// failed request (an error reply), `Err((false, _))` a wrong answer.
fn check(reply: &str, r: &Request) -> Result<(), (bool, String)> {
    let v = json::parse(reply.trim()).map_err(|e| (true, format!("unparsable reply: {e}")))?;
    if v.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err((true, format!("{:?} failed: {}", r.op, reply.trim())));
    }
    for (k, want) in &r.expect {
        if v.get(k) != Some(want) {
            return Err((
                false,
                format!("{:?}: `{k}` is {:?}, replica says {want:?}", r.op, v.get(k)),
            ));
        }
    }
    Ok(())
}

pub fn run(p: &Params) -> Result<Outcome, String> {
    run_with(p, &sibling_pivot()?)
}

pub fn run_with(p: &Params, bin: &Path) -> Result<Outcome, String> {
    let rate = p.scale.serve_rate;
    // Enough writes for the tail percentile even in a short run.
    let total = ((rate as f64 * p.seconds) as usize).max(p.scale.min_samples * 3 / 2);
    let plan = build_plan(p, total)?;
    let mut out = Outcome {
        tail_q: TAIL_Q,
        ..Default::default()
    };
    let daemon = timed_setup(&mut out, p.scale.setup_min_ns, || Daemon::spawn(bin))?;
    let (replies, times) = wire(&daemon, &plan, rate)?;
    out.peak_rss_kb = daemon.shutdown()?;
    // An open loop's stalls are latency its users see: one window, no
    // calm-window filtering.
    let mut w = Window::default();
    if let (Some(a), Some(b)) = (times.first(), times.last()) {
        w.busy_ns = ns_between(a.due, b.ack);
    }
    let mut trace = p.trace.then(Trace::default);
    for (i, (reply, t)) in replies.iter().zip(&times).enumerate() {
        let r = &plan.requests[i];
        out.attempted += 1;
        w.ops += 1;
        match check(reply, r) {
            Ok(()) => {}
            Err((true, e)) => out.fail(format!("request {i}: {e}")),
            Err((false, e)) => out.wrong.push(format!("request {i}: {e}")),
        }
        if r.op.writes() {
            w.lat_ns.push(ns_between(t.due, t.ack));
        }
        if let Some(tr) = trace.as_mut() {
            tr.counts.sends += 1;
            tr.counts.late_sends += u64::from(t.sent > t.due + Duration::from_millis(1));
        }
    }
    out.windows = vec![w];
    if out.attempted < plan.requests.len() as u64 {
        out.wrong.push(format!(
            "{} of {} requests got no reply",
            plan.requests.len() as u64 - out.attempted,
            plan.requests.len()
        ));
    }
    if let Some(tr) = trace.as_mut() {
        trace_layers(tr, &plan, &times)?;
    }
    out.trace = trace;
    Ok(out)
}

fn ns_between(a: Instant, b: Instant) -> u64 {
    u64::try_from(b.saturating_duration_since(a).as_nanos()).unwrap_or(u64::MAX)
}

/// Per-layer spans of the writes, timed on replicas after the wire phase,
/// in the order the daemon served them: the engine layers by replay on a
/// fork of an unjournaled replica, the journal as the paired difference
/// between the same write on a journaled replica and on the unjournaled
/// one, compaction every 64 commits as the daemon does it, and the daemon
/// itself as the rest of each write's wire latency (sent to ack).
fn trace_layers(t: &mut Trace, plan: &Plan, times: &[Timing]) -> Result<(), String> {
    struct Pair {
        plain: Session,
        durable: Session,
        commits: u64,
    }
    let dir = TempDir::new("replicas").map_err(|e| e.to_string())?;
    let mut pairs: Vec<Option<Pair>> = (0..plan.scripts.len()).map(|_| None).collect();
    for (r, tm) in plan.requests.iter().zip(times) {
        let script = &plan.scripts[r.script];
        let slot = &mut pairs[r.script];
        match r.op {
            Op::Open => {
                let plain = Session::from_source(&script.source).map_err(|e| e.to_string())?;
                let mut durable = plain.fork();
                let jpath = dir.path().join(format!("{}.journal", script.name));
                durable.set_journal(Journal::open(&jpath).map_err(|e| e.to_string())?);
                *slot = Some(Pair {
                    plain,
                    durable,
                    commits: 0,
                });
                continue;
            }
            Op::Close => {
                *slot = None;
                continue;
            }
            Op::Fingerprint => continue,
            Op::Apply(_) | Op::Undo(_) => {}
        }
        let pair = slot
            .as_mut()
            .ok_or_else(|| format!("write to {} before its open", script.name))?;
        let mut fork = fork_for_replay(&pair.plain);
        let t0 = Instant::now();
        let plain_res = write_op(&mut pair.plain, r.op);
        let engine = elapsed_ns(t0);
        let t0 = Instant::now();
        let durable_res = write_op(&mut pair.durable, r.op);
        let journal = elapsed_ns(t0).saturating_sub(engine);
        if plain_res != durable_res {
            return Err(format!("journaled replica diverged at {:?}", r.op));
        }
        t.add("core.journal", journal);
        let replayed = match (r.op, plain_res) {
            (Op::Apply(kind), Some(_)) => replay_apply(t, &mut fork, kind, 0, true).map(drop),
            (Op::Undo(_), Some(undone)) => {
                let ids: Vec<XformId> = undone.into_iter().map(XformId).collect();
                replay_undo(t, &mut fork, &ids)
            }
            _ => Err(format!("replica refused {:?}", r.op)),
        };
        if let Err(e) = replayed {
            t.replay_error(e);
        }
        pair.commits += 1;
        let mut compact = 0;
        if pair.commits % CHECKPOINT_EVERY == 0 {
            let t0 = Instant::now();
            pair.durable.compact_journal().map_err(|e| e.to_string())?;
            compact = elapsed_ns(t0);
            t.add("core.journal.compact", compact);
        }
        let wire = ns_between(tm.sent, tm.ack);
        t.traced_ops.push(wire);
        t.add(
            "serve.daemon",
            wire.saturating_sub(engine + journal + compact),
        );
    }
    Ok(())
}

/// One write on a replica: the new record's id for an apply, the removed
/// ids for an undo, `None` when refused.
fn write_op(s: &mut Session, op: Op) -> Option<Vec<u32>> {
    match op {
        Op::Apply(kind) => {
            let opp = s.find(kind).into_iter().next()?;
            s.apply(&opp).ok().map(|id| vec![id.0])
        }
        Op::Undo(target) => s
            .undo(XformId(target), Strategy::Regional)
            .ok()
            .map(|r| r.undone.iter().map(|x| x.0).collect()),
        _ => None,
    }
}
