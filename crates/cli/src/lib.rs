//! # pivot-cli
//!
//! Command-line front end for the PIVOT undo engine. The binary is `pivot`;
//! all behaviour lives here so it can be integration-tested without
//! spawning processes.
//!
//! ```text
//! pivot show <file>                  parse and pretty-print a program
//! pivot run <file> [ints…]           interpret; prints the output stream
//! pivot ops <file>                   list applicable transformations
//! pivot opt <file> [KINDS] [max=N]   greedily apply transformations
//! pivot script <file> <script> [--trace <out.jsonl>] [--ring <out.jsonl>]
//!                              [--profile] [--journal <out.jsonl>]
//!                                    drive a session from a command script,
//!                                    optionally recording a JSONL trace of
//!                                    every undo phase (unbounded `--trace`
//!                                    file, sampled bounded `--ring` buffer,
//!                                    or both), a per-(kind × phase) latency
//!                                    profile (`--profile`), and/or a
//!                                    write-ahead journal of every
//!                                    transaction
//! pivot serve-metrics --addr <host:port> [<file> <script>] [--hold-ms <ms>]
//!                                    serve the process-wide metrics registry
//!                                    over HTTP: Prometheus text on /metrics,
//!                                    JSON on /metrics.json (optionally after
//!                                    driving a script workload)
//! pivot top <host:port> [--frames <n>] [--interval-ms <ms>]
//!                                    live terminal view of a scrape endpoint
//! pivot serve --journal-dir <dir> [--addr <host:port>] [--hold-ms <ms>]
//!                                    run the multi-session serving daemon
//!                                    (line-oriented JSON over TCP/Unix
//!                                    sockets, per-session write-ahead
//!                                    journals, graceful drain on SIGTERM)
//! pivot recover <file> <journal>     rebuild a session from a program plus
//!                                    its write-ahead journal (committed
//!                                    transactions replay; the uncommitted
//!                                    tail is discarded; compaction
//!                                    checkpoints anchor the replay)
//! pivot audit <file> [--script <script>] [--journal <journal>] [--json] [--pristine]
//!                                    run the independent static auditor over
//!                                    the session (optionally after driving a
//!                                    script); non-zero exit on any finding
//! pivot tables                       print the regenerated paper tables
//! ```
//!
//! Script commands (one per line, `#` comments):
//!
//! ```text
//! ops                  list opportunities (indices are stable until next ops)
//! apply <n>            apply opportunity n from the last `ops`
//! apply <KIND>         apply the first opportunity of a kind (CSE, INX, …)
//! undo <n>             undo transformation #n (independent order); prints
//!                      the removal set and a phase/counter stat line
//! explain <n>          print the cascade explanation tree for an undone #n
//! stats                print the process-wide metrics registry
//! history              print the history line
//! show                 print the program
//! annotations          print Figure 2 style annotations
//! unsafe               list transformations invalidated by edits
//! insert-after <line> <code>   edit: insert code after the statement at a line
//! check                assert engine consistency
//! ```

#![warn(missing_docs)]

use pivot_obs::export::ScrapeServer;
use pivot_obs::{Fanout, PhaseProfiler, Recorder, RingConfig, RingTracer, Tracer};
use pivot_undo::engine::{Session, Strategy, UndoError};
use pivot_undo::{XformId, XformKind};
use std::fmt::Write as _;
use std::sync::Arc;

/// Slow-op threshold for `script --profile`: undo requests slower than
/// this land in the profiler's slow-op log (10 ms).
const SLOW_OP_NS: u64 = 10_000_000;

/// CLI failure.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Usage text.
pub const USAGE: &str = "\
usage: pivot <command> [args]
  show <file>                  parse and pretty-print a program
  run <file> [ints…]           interpret; prints the output stream
  ops <file>                   list applicable transformations
  opt <file> [KINDS] [max=N]   greedily apply transformations (KINDS = e.g. CSE,CTP)
  script <file> <script> [--trace <out.jsonl>] [--ring <out.jsonl>]
         [--profile] [--journal <out.jsonl>]
                               drive a session from a command script
  serve-metrics --addr <host:port> [<file> <script>] [--hold-ms <ms>]
                               serve the metrics registry over HTTP
                               (Prometheus text on /metrics, JSON on
                               /metrics.json, liveness on /healthz)
  top <host:port> [--frames <n>] [--interval-ms <ms>]
                               live terminal view of a scrape endpoint
  serve --journal-dir <dir> [--addr <host:port>] [--scrape-addr <host:port>]
        [--uds <path>] [--max-conns <n>] [--checkpoint-every <n>]
        [--hold-ms <ms>]
                               run the multi-session serving daemon: a
                               line-oriented JSON protocol over TCP (and
                               optionally a Unix socket), one write-ahead
                               journal per session; drains gracefully on
                               SIGTERM (or after --hold-ms)
  recover <file> <journal>     replay a write-ahead journal's committed
                               transactions; discard the uncommitted tail
                               (reports when a compaction checkpoint
                               anchored the recovery)
  audit <file> [--script <script>] [--journal <journal>] [--json] [--pristine]
                               run the independent static auditor (structural,
                               legality, and semantic lint families) over the
                               session; exits non-zero on any finding
  search [<file>] [--seed <n>] [--moves <n>] [--temp <x>] [--fragments <n>]
                               stochastic search: propose random catalog
                               opportunities, score by interpreter step
                               counts, reject via undo (simulated-annealing
                               acceptance); over <file> or, without one, a
                               seeded generated workload
  tables                       print the regenerated paper tables
";

/// Execute a CLI invocation (`args` excludes the binary name). Returns the
/// text that `main` prints.
pub fn run_cli(args: &[String]) -> Result<String, CliError> {
    let mut out = String::new();
    match args.first().map(String::as_str) {
        Some("show") => {
            let prog = load(args.get(1))?;
            out.push_str(&pivot_lang::printer::to_source(&prog));
        }
        Some("run") => {
            let prog = load(args.get(1))?;
            let inputs: Vec<i64> = args[2..]
                .iter()
                .map(|a| {
                    a.parse::<i64>()
                        .map_err(|_| err(format!("bad input `{a}`")))
                })
                .collect::<Result<_, _>>()?;
            let outputs = pivot_lang::interp::run_default(&prog, &inputs)
                .map_err(|e| err(format!("runtime error: {e}")))?;
            for v in outputs {
                let _ = writeln!(out, "{v}");
            }
        }
        Some("ops") => {
            let prog = load(args.get(1))?;
            let session = Session::new(prog);
            for (i, o) in session.find_all().iter().enumerate() {
                let _ = writeln!(out, "[{i}] {}", o.description);
            }
        }
        Some("opt") => {
            let prog = load(args.get(1))?;
            let mut kinds: Vec<XformKind> = pivot_undo::ALL_KINDS.to_vec();
            let mut max = 64usize;
            for a in &args[2..] {
                if let Some(n) = a.strip_prefix("max=") {
                    max = n.parse().map_err(|_| err(format!("bad max `{n}`")))?;
                } else {
                    kinds = a
                        .split(',')
                        .map(|k| {
                            XformKind::from_abbrev(k)
                                .ok_or_else(|| err(format!("unknown kind `{k}`")))
                        })
                        .collect::<Result<_, _>>()?;
                }
            }
            let mut session = Session::new(prog);
            let mut applied = 0usize;
            'outer: while applied < max {
                for &k in &kinds {
                    if applied >= max {
                        break 'outer;
                    }
                    if session.apply_kind(k).is_some() {
                        applied += 1;
                        continue 'outer;
                    }
                }
                break;
            }
            let _ = writeln!(out, "# applied: {}", session.history.summary());
            out.push_str(&session.source());
        }
        Some("script") => {
            let prog = load(args.get(1))?;
            let script_path = args
                .get(2)
                .ok_or_else(|| err("script: missing script file"))?;
            let mut trace_path = None;
            let mut ring_path = None;
            let mut journal_path = None;
            let mut profile = false;
            let mut rest = args[3..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--trace" => {
                        trace_path = Some(rest.next().ok_or_else(|| err("--trace needs a file"))?);
                    }
                    "--ring" => {
                        ring_path = Some(rest.next().ok_or_else(|| err("--ring needs a file"))?);
                    }
                    "--profile" => profile = true,
                    "--journal" => {
                        journal_path =
                            Some(rest.next().ok_or_else(|| err("--journal needs a file"))?);
                    }
                    other => return Err(err(format!("script: unknown option `{other}`"))),
                }
            }
            let script = std::fs::read_to_string(script_path)
                .map_err(|e| err(format!("cannot read {script_path}: {e}")))?;
            let mut session = Session::new(prog);
            let recorder = match trace_path {
                Some(p) => Some(Arc::new(
                    Recorder::to_file(std::path::Path::new(p))
                        .map_err(|e| err(format!("cannot create {p}: {e}")))?,
                )),
                None => None,
            };
            let ring = ring_path.map(|_| RingTracer::shared(RingConfig::default()));
            // One tracer each goes in directly; both tee through a Fanout.
            match (&recorder, &ring) {
                (Some(rec), Some(ring)) => session.set_tracer(Arc::new(Fanout::new(vec![
                    Arc::clone(rec) as Arc<dyn Tracer>,
                    Arc::clone(ring) as Arc<dyn Tracer>,
                ]))),
                (Some(rec), None) => session.set_tracer(Arc::clone(rec) as Arc<dyn Tracer>),
                (None, Some(ring)) => session.set_tracer(Arc::clone(ring) as Arc<dyn Tracer>),
                (None, None) => {}
            }
            let profiler = profile.then(|| {
                let p = Arc::new(PhaseProfiler::new(SLOW_OP_NS));
                session.set_profiler(Arc::clone(&p));
                p
            });
            if let Some(p) = journal_path {
                let journal = pivot_undo::Journal::open(std::path::Path::new(p))
                    .map_err(|e| err(format!("cannot open journal {p}: {e}")))?;
                session.set_journal(journal);
            }
            let result = run_script(&mut session, &script, &mut out);
            if let Some(rec) = recorder {
                let _ = rec.flush();
            }
            if let (Some(ring), Some(p)) = (ring, ring_path) {
                std::fs::write(p, ring.contents())
                    .map_err(|e| err(format!("cannot write {p}: {e}")))?;
            }
            if let Some(profiler) = profiler {
                out.push_str("== profile ==\n");
                out.push_str(&profiler.render());
            }
            result?;
        }
        Some("serve-metrics") => {
            let mut addr = None;
            let mut hold_ms = None;
            let mut files: Vec<&String> = Vec::new();
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--addr" => {
                        addr = Some(rest.next().ok_or_else(|| err("--addr needs host:port"))?);
                    }
                    "--hold-ms" => {
                        hold_ms = Some(
                            rest.next()
                                .ok_or_else(|| err("--hold-ms needs a number"))?
                                .parse::<u64>()
                                .map_err(|_| err("bad --hold-ms value"))?,
                        );
                    }
                    other if !other.starts_with("--") => files.push(a),
                    other => return Err(err(format!("serve-metrics: unknown option `{other}`"))),
                }
            }
            let addr = addr.ok_or_else(|| err("serve-metrics: --addr is required"))?;
            match files.as_slice() {
                [] => {}
                [file, script_path] => {
                    let prog = load(Some(file))?;
                    let script = std::fs::read_to_string(script_path)
                        .map_err(|e| err(format!("cannot read {script_path}: {e}")))?;
                    let mut session = Session::new(prog);
                    run_script(&mut session, &script, &mut out)?;
                }
                _ => return Err(err("serve-metrics: expected `<file> <script>` or nothing")),
            }
            let server = ScrapeServer::bind(addr, pivot_obs::global())
                .map_err(|e| err(format!("cannot bind {addr}: {e}")))?;
            let bound = server
                .local_addr()
                .map_err(|e| err(format!("cannot resolve bound address: {e}")))?;
            let _ = writeln!(out, "serving metrics on http://{bound}/metrics");
            match hold_ms {
                // Bounded run (tests, smoke checks): serve in the
                // background for the hold window, then shut down.
                Some(ms) => {
                    let handle = server
                        .spawn()
                        .map_err(|e| err(format!("cannot start server: {e}")))?;
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    handle.shutdown();
                }
                // Production mode: serve on this thread until killed.
                None => {
                    eprintln!("serving metrics on http://{bound}/metrics");
                    server
                        .serve()
                        .map_err(|e| err(format!("serve failed: {e}")))?;
                }
            }
        }
        Some("top") => {
            let addr_arg = args
                .get(1)
                .filter(|a| !a.starts_with("--"))
                .ok_or_else(|| err("top: missing <host:port>"))?;
            let mut frames = 1u64;
            let mut interval_ms = 1000u64;
            let mut rest = args[2..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--frames" => {
                        frames = rest
                            .next()
                            .ok_or_else(|| err("--frames needs a number"))?
                            .parse()
                            .map_err(|_| err("bad --frames value"))?;
                    }
                    "--interval-ms" => {
                        interval_ms = rest
                            .next()
                            .ok_or_else(|| err("--interval-ms needs a number"))?
                            .parse()
                            .map_err(|_| err("bad --interval-ms value"))?;
                    }
                    other => return Err(err(format!("top: unknown option `{other}`"))),
                }
            }
            let addr: std::net::SocketAddr = addr_arg
                .parse()
                .map_err(|_| err(format!("top: bad address `{addr_arg}`")))?;
            for frame in 0..frames.max(1) {
                if frame > 0 {
                    std::thread::sleep(std::time::Duration::from_millis(interval_ms));
                    out.push('\n');
                }
                let body = pivot_obs::export::http_get(&addr, "/metrics.json")
                    .map_err(|e| err(format!("top: scrape failed: {e}")))?;
                out.push_str(&render_top_json(&body)?);
            }
        }
        Some("serve") => {
            let mut cfg = pivot_serve::ServeConfig::new("pivot-serve-journals");
            let mut journal_dir_set = false;
            let mut hold_ms = None;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                let take = |it: &mut std::slice::Iter<String>, flag: &str| {
                    it.next()
                        .cloned()
                        .ok_or_else(|| err(format!("{flag} needs a value")))
                };
                match a.as_str() {
                    "--journal-dir" => {
                        cfg.journal_dir = take(&mut rest, "--journal-dir")?.into();
                        journal_dir_set = true;
                    }
                    "--addr" => cfg.tcp_addr = take(&mut rest, "--addr")?,
                    "--scrape-addr" => {
                        cfg.scrape_addr = Some(take(&mut rest, "--scrape-addr")?);
                    }
                    "--uds" => cfg.uds_path = Some(take(&mut rest, "--uds")?.into()),
                    "--max-conns" => {
                        cfg.max_conns = take(&mut rest, "--max-conns")?
                            .parse::<usize>()
                            .map_err(|_| err("bad --max-conns value"))?;
                    }
                    "--checkpoint-every" => {
                        cfg.checkpoint_every = take(&mut rest, "--checkpoint-every")?
                            .parse::<u64>()
                            .map_err(|_| err("bad --checkpoint-every value"))?;
                    }
                    "--hold-ms" => {
                        hold_ms = Some(
                            take(&mut rest, "--hold-ms")?
                                .parse::<u64>()
                                .map_err(|_| err("bad --hold-ms value"))?,
                        );
                    }
                    other => return Err(err(format!("serve: unknown option `{other}`"))),
                }
            }
            if !journal_dir_set {
                return Err(err("serve: --journal-dir is required"));
            }
            cfg = cfg.from_env();
            match hold_ms {
                // Bounded run (tests, CI smoke): serve for the hold
                // window, then drain gracefully.
                Some(ms) => {
                    let daemon = pivot_serve::spawn(cfg).map_err(|e| err(e.to_string()))?;
                    let _ = writeln!(out, "listening tcp {}", daemon.tcp_addr());
                    if let Some(scrape) = daemon.scrape_addr() {
                        let _ = writeln!(out, "scrape {scrape}");
                    }
                    println!("listening tcp {}", daemon.tcp_addr());
                    if let Some(scrape) = daemon.scrape_addr() {
                        println!("scrape {scrape}");
                    }
                    use std::io::Write as _;
                    let _ = std::io::stdout().flush();
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    daemon.shutdown();
                    let _ = writeln!(out, "drained");
                }
                // Production mode: serve until SIGTERM/SIGINT, then
                // drain gracefully (run prints the addresses itself).
                None => pivot_serve::run(cfg).map_err(|e| err(e.to_string()))?,
            }
        }
        Some("recover") => {
            let prog = load(args.get(1))?;
            let journal_path = args
                .get(2)
                .ok_or_else(|| err("recover: missing journal file"))?;
            let recovery = Session::recover(prog, std::path::Path::new(journal_path))
                .map_err(|e| err(e.to_string()))?;
            let _ = writeln!(
                out,
                "recovered: {} committed, {} aborted, {} discarded{}",
                recovery.committed,
                recovery.aborted,
                recovery.discarded,
                if recovery.from_checkpoint {
                    " (from checkpoint)"
                } else {
                    ""
                }
            );
            let _ = writeln!(out, "history: {}", recovery.session.history.summary());
            out.push_str(&recovery.session.source());
        }
        Some("audit") => {
            let prog = load(args.get(1))?;
            let mut script_path = None;
            let mut journal_path = None;
            let mut json = false;
            let mut pristine = false;
            let mut rest = args[2..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--script" => {
                        script_path =
                            Some(rest.next().ok_or_else(|| err("--script needs a file"))?);
                    }
                    "--journal" => {
                        journal_path =
                            Some(rest.next().ok_or_else(|| err("--journal needs a file"))?);
                    }
                    "--json" => json = true,
                    "--pristine" => pristine = true,
                    other => return Err(err(format!("audit: unknown option `{other}`"))),
                }
            }
            let mut session = Session::new(prog);
            if let Some(p) = script_path {
                let script =
                    std::fs::read_to_string(p).map_err(|e| err(format!("cannot read {p}: {e}")))?;
                let mut scratch = String::new();
                run_script(&mut session, &script, &mut scratch)?;
            }
            let journal_text = match journal_path {
                Some(p) => Some(
                    std::fs::read_to_string(p)
                        .map_err(|e| err(format!("cannot read journal {p}: {e}")))?,
                ),
                None => None,
            };
            // A session that ran no script is trivially pristine (empty
            // log); with a script, the caller vouches via --pristine that
            // no edit commands were used, enabling the stricter
            // replay-to-source rule (PV202).
            let cfg = pivot_audit::AuditConfig {
                pristine: pristine || script_path.is_none(),
                ..pivot_audit::AuditConfig::default()
            };
            let report =
                pivot_audit::audit_session_with_journal(&session, &cfg, journal_text.as_deref());
            let rendered = if json {
                report.render_json()
            } else {
                report.render_human()
            };
            if report.is_clean() {
                out.push_str(&rendered);
            } else {
                return Err(CliError(rendered));
            }
        }
        Some("search") => {
            let mut cfg = pivot_workload::search::SearchCfg::default();
            let mut file: Option<&String> = None;
            let mut rest = args[1..].iter();
            while let Some(a) = rest.next() {
                match a.as_str() {
                    "--seed" => {
                        cfg.seed = rest
                            .next()
                            .ok_or_else(|| err("--seed needs a number"))?
                            .parse()
                            .map_err(|_| err("bad --seed value"))?;
                    }
                    "--moves" => {
                        cfg.moves = rest
                            .next()
                            .ok_or_else(|| err("--moves needs a number"))?
                            .parse()
                            .map_err(|_| err("bad --moves value"))?;
                    }
                    "--temp" => {
                        cfg.temp = rest
                            .next()
                            .ok_or_else(|| err("--temp needs a number"))?
                            .parse()
                            .map_err(|_| err("bad --temp value"))?;
                    }
                    "--fragments" => {
                        cfg.fragments = rest
                            .next()
                            .ok_or_else(|| err("--fragments needs a number"))?
                            .parse()
                            .map_err(|_| err("bad --fragments value"))?;
                    }
                    other if !other.starts_with("--") => file = Some(a),
                    other => return Err(err(format!("search: unknown option `{other}`"))),
                }
            }
            let session = match file {
                Some(f) => Session::new(load(Some(f))?),
                None => pivot_workload::search::search_session(&cfg),
            };
            let o = pivot_workload::search::Search::new(
                session,
                cfg,
                pivot_workload::search::RejectMode::UndoReject,
            )
            .run();
            let _ = writeln!(
                out,
                "proposed {} accepted {} ({} uphill) rejected {} (undo {} / rollback {}) \
                 no-opp {} restarts {}",
                o.proposed,
                o.accepted,
                o.uphill,
                o.rejected,
                o.undo_rejects,
                o.rollback_rejects,
                o.no_opportunity,
                o.restarts
            );
            let _ = writeln!(
                out,
                "cost {} -> {} (best {}), {:.0} moves/sec",
                o.initial_cost,
                o.final_cost,
                o.best_cost,
                o.moves_per_sec()
            );
            out.push_str(&o.final_source);
            if o.output_divergences > 0 {
                return Err(err(format!(
                    "search: {} candidate(s) changed the output stream",
                    o.output_divergences
                )));
            }
        }
        Some("tables") => {
            out.push_str("== Table 3 (generated from specifications) ==\n");
            out.push_str(&pivot_undo::spec::render_table3());
            out.push_str("\n== Table 4 (static) ==\n");
            out.push_str(&pivot_undo::interact::render(
                &pivot_undo::interact::default_matrix(),
            ));
        }
        Some("help") | None => out.push_str(USAGE),
        Some(other) => return Err(err(format!("unknown command `{other}`\n{USAGE}"))),
    }
    Ok(out)
}

/// Render a `/metrics.json` body as the `pivot top` frame.
fn render_top_json(body: &str) -> Result<String, CliError> {
    let v = pivot_obs::json::parse(body).map_err(|e| err(format!("top: bad JSON: {e}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<44} {:>12}  |  window p50/p95/p99 (us)",
        "metric", "value"
    );
    if let Some(counters) = v.get("counters").and_then(|c| c.as_object()) {
        for (name, value) in counters {
            let _ = writeln!(out, "{:<44} {:>12}", name, value.as_int().unwrap_or(0));
        }
    }
    if let Some(hists) = v.get("histograms").and_then(|h| h.as_object()) {
        for (name, h) in hists {
            let get = |k: &str| h.get(k).and_then(|x| x.as_int()).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<44} {:>12}  |  {}/{}/{} (n={})",
                name,
                get("count"),
                get("win_p50_ns") / 1_000,
                get("win_p95_ns") / 1_000,
                get("win_p99_ns") / 1_000,
                get("win_count")
            );
        }
    }
    Ok(out)
}

fn load(path: Option<&String>) -> Result<pivot_lang::Program, CliError> {
    let path = path.ok_or_else(|| err("missing program file"))?;
    let src = std::fs::read_to_string(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    pivot_lang::parser::parse(&src).map_err(|e| err(format!("{path}: {e}")))
}

/// Execute a session script (see module docs for the command set).
pub fn run_script(session: &mut Session, script: &str, out: &mut String) -> Result<(), CliError> {
    let mut last_ops = Vec::new();
    for (lineno, raw) in script.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let cmd = parts.next().unwrap();
        let fail = |m: String| err(format!("script line {}: {m}", lineno + 1));
        match cmd {
            "ops" => {
                last_ops = session.find_all();
                for (i, o) in last_ops.iter().enumerate() {
                    let _ = writeln!(out, "[{i}] {}", o.description);
                }
            }
            "apply" => {
                let what = parts
                    .next()
                    .ok_or_else(|| fail("apply needs an argument".into()))?;
                if let Ok(n) = what.parse::<usize>() {
                    let opp = last_ops
                        .get(n)
                        .cloned()
                        .ok_or_else(|| fail(format!("no opportunity [{n}] (run `ops`)")))?;
                    let id = session
                        .apply(&opp)
                        .map_err(|e| fail(format!("stale opportunity: {e}")))?;
                    let _ = writeln!(out, "applied #{}", id.0);
                } else {
                    let kind = XformKind::from_abbrev(what)
                        .ok_or_else(|| fail(format!("unknown kind `{what}`")))?;
                    match session.apply_kind(kind) {
                        Some(id) => {
                            let _ = writeln!(out, "applied #{}", id.0);
                        }
                        None => {
                            let _ = writeln!(out, "no {kind} opportunity");
                        }
                    }
                }
            }
            "undo" => {
                let n: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| fail("undo needs a transformation number".into()))?;
                match session.undo(XformId(n), Strategy::Regional) {
                    Ok(r) => {
                        let _ = writeln!(out, "undone: {:?}", r.undone);
                        let _ = writeln!(out, "{r}");
                    }
                    Err(UndoError::NoSuchXform(id)) => {
                        return Err(fail(format!("no transformation {id}")));
                    }
                    Err(e) => {
                        let _ = writeln!(out, "cannot undo #{n}: {e}");
                    }
                }
            }
            "explain" => {
                let n: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| fail("explain needs a transformation number".into()))?;
                if session.history.get(XformId(n)).is_err() {
                    let _ = writeln!(out, "no transformation #{n}");
                } else {
                    match session.explain(XformId(n)) {
                        Some(tree) => out.push_str(&tree.render()),
                        None => {
                            let _ = writeln!(out, "#{n} has not been undone");
                        }
                    }
                }
            }
            "stats" => out.push_str(&pivot_obs::global().render()),
            "history" => {
                let _ = writeln!(out, "{}", session.history.summary());
            }
            "show" => out.push_str(&session.source()),
            "annotations" => {
                let _ = writeln!(
                    out,
                    "{}",
                    session
                        .log
                        .render_annotations(&session.prog, &session.history.stamp_order())
                );
            }
            "unsafe" => {
                let _ = writeln!(out, "{:?}", session.find_unsafe());
            }
            "insert-after" => {
                let line_no: u32 = parts
                    .next()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| fail("insert-after needs a line number".into()))?;
                let code: String = parts.collect::<Vec<_>>().join(" ");
                if code.is_empty() {
                    return Err(fail("insert-after needs code".into()));
                }
                let target = session
                    .prog
                    .attached_stmts()
                    .into_iter()
                    .find(|&s| session.prog.stmt(s).label == line_no)
                    .ok_or_else(|| fail(format!("no statement labelled {line_no}")))?;
                let loc = session
                    .prog
                    .loc_of(target)
                    .map_err(|e| fail(e.to_string()))?;
                let parent = loc.parent;
                let edit = pivot_undo::Edit::Insert {
                    src: format!("{code}\n"),
                    at: pivot_lang::Loc {
                        parent,
                        anchor: pivot_lang::AnchorPos::After(target),
                    },
                };
                session.edit(&edit).map_err(|e| fail(e.to_string()))?;
                let _ = writeln!(out, "edited.");
            }
            "check" => {
                session.assert_consistent();
                let _ = writeln!(out, "consistent.");
            }
            other => return Err(fail(format!("unknown script command `{other}`"))),
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pivot_workload::tempdir::TempDir;

    fn session(src: &str) -> Session {
        Session::from_source(src).unwrap()
    }

    #[test]
    fn script_apply_and_undo_by_kind() {
        let mut s = session("d = e + f\nr = e + f\nwrite r\nwrite d\n");
        let mut out = String::new();
        run_script(
            &mut s,
            "ops\napply CSE\nundo 1\nhistory\nshow\ncheck\n",
            &mut out,
        )
        .unwrap();
        assert!(out.contains("applied #1"), "{out}");
        assert!(out.contains("!cse(1)"), "{out}");
        assert!(out.contains("r = e + f"), "{out}");
        assert!(out.contains("consistent."), "{out}");
    }

    #[test]
    fn script_apply_by_index() {
        let mut s = session("c = 1\nx = c + 2\nwrite x\n");
        let mut out = String::new();
        run_script(&mut s, "ops\napply 0\nshow\n", &mut out).unwrap();
        assert!(out.contains("applied #1"), "{out}");
    }

    #[test]
    fn script_edit_and_unsafe() {
        let mut s = session("d = e + f\nr = e + f\nwrite r\nwrite d\n");
        let mut out = String::new();
        run_script(
            &mut s,
            "apply CSE\ninsert-after 1 e = 0\nunsafe\nundo 1\nshow\n",
            &mut out,
        )
        .unwrap();
        assert!(out.contains("[x1]"), "the CSE must be invalidated: {out}");
        assert!(out.contains("r = e + f"), "{out}");
    }

    #[test]
    fn script_undo_reports_stats_and_explains() {
        let mut s = session("d = e + f\nr = e + f\nwrite r\nwrite d\n");
        let mut out = String::new();
        run_script(
            &mut s,
            "apply CSE\nexplain 1\nundo 1\nexplain 1\nstats\nexplain 2\n",
            &mut out,
        )
        .unwrap();
        assert!(out.contains("#1 has not been undone"), "{out}");
        assert!(out.contains("undone 1 [#1]"), "{out}");
        assert!(out.contains("#1 cse (requested by user)"), "{out}");
        assert!(out.contains("undo.requests"), "{out}");
        assert!(out.contains("no transformation #2"), "{out}");
    }

    #[test]
    fn script_errors_are_reported_with_lines() {
        let mut s = session("x = 1\n");
        let mut out = String::new();
        let e = run_script(&mut s, "frobnicate\n", &mut out).unwrap_err();
        assert!(e.0.contains("line 1"), "{e}");
        let e = run_script(&mut s, "\n\napply ZZZ\n", &mut out).unwrap_err();
        assert!(e.0.contains("line 3"), "{e}");
    }

    #[test]
    fn cli_tables_and_help() {
        let out = run_cli(&["tables".into()]).unwrap();
        assert!(out.contains("Table 3"));
        assert!(out.contains("DCE"));
        let out = run_cli(&[]).unwrap();
        assert!(out.contains("usage"));
        assert!(run_cli(&["nonsense".into()]).is_err());
    }

    #[test]
    fn cli_file_commands() {
        let tmp = TempDir::new("cli_test").unwrap();
        let dir = tmp.path();
        let f = dir.join("prog.pv");
        std::fs::write(&f, "read x\nwrite x + 2 * 3\n").unwrap();
        let fs = f.to_string_lossy().to_string();
        let out = run_cli(&["show".into(), fs.clone()]).unwrap();
        assert!(out.contains("write x + 2 * 3"));
        let out = run_cli(&["run".into(), fs.clone(), "4".into()]).unwrap();
        assert_eq!(out.trim(), "10");
        let out = run_cli(&["ops".into(), fs.clone()]).unwrap();
        assert!(out.contains("CFO"), "{out}");
        let out = run_cli(&["opt".into(), fs.clone(), "CFO".into()]).unwrap();
        assert!(out.contains("write x + 6"), "{out}");
        // Script file end-to-end.
        let sf = dir.join("script.txt");
        std::fs::write(&sf, "apply CFO\nshow\n").unwrap();
        let out = run_cli(&[
            "script".into(),
            fs.clone(),
            sf.to_string_lossy().to_string(),
        ])
        .unwrap();
        assert!(out.contains("write x + 6"), "{out}");
        // Script with --trace writes a JSONL file covering the undo phases.
        let sf2 = dir.join("script_undo.txt");
        std::fs::write(&sf2, "apply CFO\nundo 1\n").unwrap();
        let tf = dir.join("trace.jsonl");
        let out = run_cli(&[
            "script".into(),
            fs.clone(),
            sf2.to_string_lossy().to_string(),
            "--trace".into(),
            tf.to_string_lossy().to_string(),
        ])
        .unwrap();
        assert!(out.contains("undone: [x1]"), "{out}");
        let trace = std::fs::read_to_string(&tf).unwrap();
        assert!(trace.lines().count() >= 2, "{trace}");
        assert!(trace.contains("\"phase\":\"undo\""), "{trace}");
        // Unknown options are rejected.
        assert!(run_cli(&[
            "script".into(),
            fs,
            sf.to_string_lossy().to_string(),
            "--bogus".into()
        ])
        .is_err());
    }

    #[test]
    fn cli_ring_profile_and_serve_metrics() {
        let tmp = TempDir::new("cli_obs_test").unwrap();
        let dir = tmp.path();
        let f = dir.join("prog.pv");
        std::fs::write(&f, "d = e + f\nr = e + f\nwrite r\nwrite d\n").unwrap();
        let fs = f.to_string_lossy().to_string();
        let sf = dir.join("script.txt");
        std::fs::write(&sf, "apply CSE\nundo 1\n").unwrap();
        let sfs = sf.to_string_lossy().to_string();
        // --ring drains the sampled ring to a JSONL file; --profile
        // appends the per-(kind x phase) table.
        let rf = dir.join("ring.jsonl");
        let out = run_cli(&[
            "script".into(),
            fs.clone(),
            sfs.clone(),
            "--ring".into(),
            rf.to_string_lossy().to_string(),
            "--profile".into(),
        ])
        .unwrap();
        assert!(out.contains("== profile =="), "{out}");
        assert!(out.contains("region_scan"), "{out}");
        let ring = std::fs::read_to_string(&rf).unwrap();
        assert!(ring.contains("\"phase\":\"undo\""), "{ring}");
        // serve-metrics with a workload and a bounded hold window; then a
        // `top` frame against the same endpoint would race the shutdown,
        // so top gets its own server below.
        let out = run_cli(&[
            "serve-metrics".into(),
            "--addr".into(),
            "127.0.0.1:0".into(),
            fs.clone(),
            sfs,
            "--hold-ms".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(
            out.contains("serving metrics on http://127.0.0.1:"),
            "{out}"
        );
        // `top` against a live endpoint renders counters + histograms.
        let server = ScrapeServer::bind("127.0.0.1:0", pivot_obs::global()).unwrap();
        let handle = server.spawn().unwrap();
        let out = run_cli(&[
            "top".into(),
            handle.addr().to_string(),
            "--frames".into(),
            "1".into(),
        ])
        .unwrap();
        assert!(out.contains("undo.requests"), "{out}");
        assert!(out.contains("undo.phase_ns{phase=\"undo\"}"), "{out}");
        handle.shutdown();
        // Bad invocations are rejected.
        assert!(run_cli(&["serve-metrics".into()]).is_err());
        assert!(run_cli(&["top".into()]).is_err());
        assert!(run_cli(&["top".into(), "not-an-addr".into()]).is_err());
    }

    #[test]
    fn cli_audit() {
        let tmp = TempDir::new("cli_audit_test").unwrap();
        let dir = tmp.path();
        let f = dir.join("prog.pv");
        std::fs::write(&f, "d = e + f\nr = e + f\nwrite r\nwrite d\n").unwrap();
        let fs = f.to_string_lossy().to_string();
        // Fresh session audits clean.
        let out = run_cli(&["audit".into(), fs.clone()]).unwrap();
        assert!(out.contains("0 finding(s)"), "{out}");
        // Transformed session (script-driven) audits clean, JSON output.
        let sf = dir.join("script.txt");
        std::fs::write(&sf, "apply CSE\n").unwrap();
        let out = run_cli(&[
            "audit".into(),
            fs.clone(),
            "--script".into(),
            sf.to_string_lossy().to_string(),
            "--pristine".into(),
            "--json".into(),
        ])
        .unwrap();
        assert!(out.contains("\"rules_run\""), "{out}");
        // A journal whose committed transactions outnumber the history is
        // divergence: the audit fails and the finding names PV009.
        let jf = dir.join("bogus.journal");
        std::fs::write(
            &jf,
            "{\"rec\":\"begin\",\"txn\":1,\"op\":\"apply\",\"kind\":\"CSE\",\"site\":4}\n\
             {\"rec\":\"commit\",\"txn\":1}\n",
        )
        .unwrap();
        let e = run_cli(&[
            "audit".into(),
            fs.clone(),
            "--journal".into(),
            jf.to_string_lossy().to_string(),
        ])
        .unwrap_err();
        assert!(e.0.contains("PV009"), "{e}");
        // Unknown options are rejected.
        assert!(run_cli(&["audit".into(), fs, "--bogus".into()]).is_err());
    }

    #[test]
    fn cli_journal_and_recover() {
        let tmp = TempDir::new("cli_journal_test").unwrap();
        let dir = tmp.path();
        let f = dir.join("prog.pv");
        std::fs::write(&f, "d = e + f\nr = e + f\nwrite r\nwrite d\n").unwrap();
        let fs = f.to_string_lossy().to_string();
        let sf = dir.join("script.txt");
        std::fs::write(&sf, "apply CSE\nundo 1\nshow\n").unwrap();
        let jf = dir.join("session.journal");
        let out = run_cli(&[
            "script".into(),
            fs.clone(),
            sf.to_string_lossy().to_string(),
            "--journal".into(),
            jf.to_string_lossy().to_string(),
        ])
        .unwrap();
        assert!(out.contains("undone: [x1]"), "{out}");
        let journal = std::fs::read_to_string(&jf).unwrap();
        assert!(journal.contains("\"rec\":\"begin\""), "{journal}");
        assert!(journal.contains("\"rec\":\"commit\""), "{journal}");
        // Replaying the journal reproduces the session end state.
        let out = run_cli(&["recover".into(), fs, jf.to_string_lossy().to_string()]).unwrap();
        assert!(
            out.contains("recovered: 2 committed, 0 aborted, 0 discarded"),
            "{out}"
        );
        assert!(out.contains("r = e + f"), "{out}");
    }

    #[test]
    fn cli_recover_reports_checkpoint_anchored_recovery() {
        let tmp = TempDir::new("cli_ckpt_test").unwrap();
        let dir = tmp.path();
        let src = "d = e + f\nr = e + f\nwrite r\nwrite d\nx = 3 * 4\nwrite x\n";
        let f = dir.join("prog.pv");
        std::fs::write(&f, src).unwrap();
        let jf = dir.join("compacted.journal");
        let mut s = Session::from_source(src).unwrap();
        s.set_journal(pivot_undo::Journal::open(&jf).unwrap());
        s.apply_kind(XformKind::Cse).unwrap();
        assert!(s.compact_journal().unwrap());
        s.apply_kind(XformKind::Cfo).unwrap();
        let out = run_cli(&[
            "recover".into(),
            f.to_string_lossy().to_string(),
            jf.to_string_lossy().to_string(),
        ])
        .unwrap();
        assert!(
            out.contains("recovered: 1 committed, 0 aborted, 0 discarded (from checkpoint)"),
            "{out}"
        );
        assert_eq!(
            out.lines().last().map(str::trim),
            s.source().lines().last().map(str::trim),
            "{out}"
        );
        // The serve command validates its arguments.
        assert!(run_cli(&["serve".into()]).is_err());
        assert!(run_cli(&["serve".into(), "--bogus".into()]).is_err());
    }
}
