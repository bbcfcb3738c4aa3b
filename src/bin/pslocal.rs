//! `pslocal` — command-line front end for the reproduction stack.
//!
//! ```text
//! pslocal gen planted --n 80 --m 40 --k 4 [--seed S] > instance.hg
//! pslocal gen gnp --n 100 --p 0.05 [--seed S]        > graph.g
//! pslocal stats    < instance.hg | graph.g
//! pslocal maxis  [--oracle NAME] [--seed S]       < graph.g
//! pslocal reduce --k 4 [--oracle NAME] [--seed S] < instance.hg
//! ```
//!
//! Oracles: `exact`, `greedy`, `luby`, `clique-removal`, `decomposition`.
//! Inputs use the text formats of `pslocal_graph::io`.

use pslocal::cfcolor::checker;
use pslocal::core::protocol::{boxed_oracle_by_name, kernel_by_name};
use pslocal::core::{
    inspect_journal, reduce_cf_to_maxis_resumable, reduce_cf_to_maxis_traced, serve_lines,
    Admission, Checkpointing, CrashPlan, ReductionConfig, ReductionOutcome, Server, ServerConfig,
    Service, ServiceConfig, DEFAULT_MAX_CONNECTIONS, DEFAULT_QUEUE_CAPACITY,
};
use pslocal::graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal::graph::generators::random::gnp;
use pslocal::graph::io::{read_graph, read_hypergraph, write_graph, write_hypergraph};
use pslocal::graph::{GraphStats, HypergraphStats, KernelStrategy};
use pslocal::maxis::MaxIsOracle;
use pslocal::telemetry::{
    event_to_json, names, render_tree, span, AggregateSink, Counter, Histogram, JsonlSink,
    MemorySink, PhaseTimeline, Telemetry,
};
use rand::SeedableRng;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

const USAGE: &str = "\
pslocal — P-SLOCAL-completeness of MaxIS approximation, executable

USAGE:
  pslocal gen planted --n N --m M --k K [--epsilon E] [--seed S]
  pslocal gen gnp --n N --p P [--seed S]
  pslocal stats                 (reads a graph or hypergraph on stdin)
  pslocal maxis [--oracle O] [--seed S]        (graph on stdin)
  pslocal reduce --k K [--oracle O] [--seed S] [--kernel auto|csr|bitset]
                                (hypergraph on stdin)
  pslocal trace-report [--n N] [--m M] [--k K] [--oracle O] [--seed S]
                                (run a planted reduction, render the
                                 span tree + per-phase timeline)
  pslocal batch [--workers W] [--queue Q] [--deadline-ms D]
                                (JSONL requests on stdin, one JSONL
                                 line per request on stdout, completion
                                 order; the serve protocol over stdio)
  pslocal serve --addr HOST:PORT [--workers W] [--queue-depth Q]
                [--max-conns C] [--deadline-ms D] [--metrics-out FILE]
                                (the batch protocol over TCP; prints
                                 'listening on ADDR', serves until
                                 SIGINT/SIGTERM or a client SHUTDOWN,
                                 then drains gracefully)
  pslocal client --addr HOST:PORT [--stats | --shutdown | --ping]
                                (send stdin JSONL requests — or one
                                 command — and stream the responses)
  pslocal checkpoint-inspect --checkpoint-dir DIR
                                (decode a phase journal: header, stats,
                                 per-phase records)
  pslocal lint [--root DIR] [--deny] [--json] [--fix-hints] [--lock-order]
                                (static analysis of the workspace's own
                                 sources: lock-order audit, panic-path,
                                 stdout-purity, codec-drift, hygiene)

CHECKPOINTING (reduce):
  --checkpoint-dir DIR  durably journal every committed phase into DIR
  --resume              replay DIR's journal (corruption-tolerant) and
                        continue from the last good phase; the outcome
                        is byte-identical to an uninterrupted run. Repeat
                        the interrupted run's options, --seed included:
                        the journal does not record the oracle's seed
  --crash-at P:POINT    abort the process at an injected kill point
                        (phase P at mid-oracle | after-oracle |
                         before-journal | after-journal) — for
                        crash-recovery testing

KERNEL (reduce):
  --kernel K            adjacency kernel for the phase conflict graphs:
                        auto (default: bit rows on a dense graph when
                        the oracle reads them, else csr), csr, bitset.
                        Identical output on every route, only the cost
                        differs

BATCH (batched multi-instance serving):
  stdin: one flat JSON object per line. Fields: \"id\" (string,
  required), \"n\"/\"m\"/\"k\"/\"seed\"/\"epsilon\" (planted instance;
  defaults 128 / n/2 / 4 / 0xC0FFEE / 0.5), \"oracle\" (comma-separated
  fallback chain, default greedy), \"kernel\" (auto|csr|bitset),
  \"deadline_ms\" (per-request override), \"faults\" (comma script
  injected into the primary oracle: - | panic | invalid-set |
  empty-set | under-deliver | stall:N). Any other key is a bad line.
  Blank lines and lines starting with # are skipped, and the SERVE
  commands are answered too.
  stdout: one JSON line per request in completion order —
    {\"id\":..,\"outcome\":\"ok\",\"phases\":P,\"set_size\":S,\"colors\":C}
    {\"id\":..,\"outcome\":\"deadline_exceeded\",\"phase\":P}
    {\"id\":..,\"outcome\":\"failed\",\"error\":..}
    {\"outcome\":\"bad_request\",\"error\":..}    (malformed, over 64 KiB,
                                             or unbuildable line)
  After answering every line, batch exits 1 if a line was bad and
  names the first one on stderr (stdin line N: ...).
  --workers W           worker threads, each owning one long-lived
                        phase workspace (default 2)
  --queue Q             admission-queue bound (default 64): how many
                        requests batch holds in flight. A full queue
                        makes batch wait, so there are no rejected lines
  --deadline-ms D       default per-request deadline, measured from
                        submission, enforced at phase boundaries

SERVE (the batch protocol over persistent TCP connections):
  Lines in, lines out — exactly the BATCH schemas, so sorted responses
  byte-match `pslocal batch` on the same requests. Extra typed lines:
    {\"id\":..,\"outcome\":\"rejected\"}    admission queue full (shed, not run)
    {\"outcome\":\"overloaded\",..}       connection cap reached, socket closed
  Plain-text commands on the same stream: PING -> PONG, STATS -> live
  metrics + OK, SHUTDOWN -> DRAINING + graceful server-wide drain,
  QUIT -> close this connection.
  --addr HOST:PORT      bind address (port 0 = ephemeral; the real
                        address is printed as 'listening on ADDR')
  --workers W           worker threads (default 2)
  --queue-depth Q       admission-queue bound (default 64)
  --max-conns C         concurrent-connection cap (default 64)
  --deadline-ms D       default per-request deadline
  --metrics-out FILE    stream every telemetry event as JSONL to FILE
  A final stats snapshot and the drain summary go to stderr on exit.

TELEMETRY (maxis / reduce / batch / trace-report):
  --trace               render the span tree to stdout after the run
  --metrics-out FILE    append every telemetry event as JSONL to FILE

LINT (static analysis, wired into CI as a hard gate):
  --root DIR            workspace root to analyze (default .)
  --deny                exit nonzero when any finding survives
  --json                machine-readable report (pslocal-lint/v1)
  --fix-hints           append a fix hint under each finding
  --lock-order          print the lock-order audit (inventory, edges,
                        condvar associations, canonical order) instead
                        of the finding list
  Findings are waived inline with
  `// pslocal: allow(<lint>, \"justification\")` — the justification is
  mandatory, and unused waivers are themselves findings.

ORACLES: exact | greedy | luby | clique-removal | decomposition
FORMATS: see pslocal_graph::io (p graph / p hypergraph headers)";

/// Options that are flags (no value argument follows them).
const BOOLEAN_FLAGS: &[&str] =
    &["trace", "resume", "stats", "shutdown", "ping", "deny", "json", "fix-hints", "lock-order"];

/// Minimal `--key value` argument map (with a few `--flag` booleans).
struct Args {
    positional: Vec<String>,
    options: Vec<(String, String)>,
}

impl Args {
    fn parse(raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut positional = Vec::new();
        let mut options = Vec::new();
        let mut iter = raw.peekable();
        while let Some(a) = iter.next() {
            if let Some(key) = a.strip_prefix("--") {
                if BOOLEAN_FLAGS.contains(&key) {
                    options.push((key.to_string(), "true".to_string()));
                    continue;
                }
                let value = iter.next().ok_or_else(|| format!("option --{key} needs a value"))?;
                options.push((key.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Ok(Args { positional, options })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.options.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn flag(&self, key: &str) -> bool {
        self.get(key).is_some()
    }

    fn parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => {
                v.parse::<T>().map(Some).map_err(|_| format!("cannot parse --{key} value {v:?}"))
            }
        }
    }

    fn required<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        self.parsed(key)?.ok_or_else(|| format!("missing required option --{key}"))
    }
}

/// Parses `--kernel` (default auto) into a [`KernelStrategy`].
fn kernel_opt(args: &Args) -> Result<KernelStrategy, String> {
    kernel_by_name(args.get("kernel").unwrap_or("auto"))
}

fn read_stdin() -> Result<String, String> {
    let mut text = String::new();
    std::io::stdin().read_to_string(&mut text).map_err(|e| format!("cannot read stdin: {e}"))?;
    Ok(text)
}

/// The CLI's telemetry switches: `--trace` (render the span tree) and
/// `--metrics-out FILE` (append raw events as JSONL). When neither is
/// given, commands take their untraced path — static dispatch to the
/// null sink, zero overhead.
struct TraceOpts {
    trace: bool,
    metrics_out: Option<String>,
}

impl TraceOpts {
    fn from(args: &Args) -> Self {
        TraceOpts {
            trace: args.flag("trace"),
            metrics_out: args.get("metrics-out").map(String::from),
        }
    }

    fn wanted(&self) -> bool {
        self.trace || self.metrics_out.is_some()
    }

    /// Renders what `sink` captured to `stdout` and/or persists it.
    fn emit(&self, sink: &MemorySink, stdout: &mut impl std::io::Write) -> Result<(), String> {
        if self.trace {
            write!(stdout, "{}", render_tree(&sink.spans())).map_err(stdout_error)?;
        }
        if let Some(path) = &self.metrics_out {
            append_events_jsonl(path, sink)?;
        }
        Ok(())
    }
}

/// The error line for a failed write to stdout, such as a closed pipe.
fn stdout_error(e: std::io::Error) -> String {
    format!("cannot write stdout: {e}")
}

/// Appends `sink`'s events to `path` as JSON Lines.
fn append_events_jsonl(path: &str, sink: &MemorySink) -> Result<(), String> {
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let write_err = |e: std::io::Error| format!("cannot write {path}: {e}");
    for event in sink.events() {
        writeln!(w, "{}", event_to_json(&event)).map_err(write_err)?;
    }
    w.flush().map_err(write_err)
}

fn cmd_gen(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match args.positional.get(1).map(String::as_str) {
        Some("planted") => {
            let n = args.required("n")?;
            let m = args.required("m")?;
            let k = args.required("k")?;
            let epsilon: f64 = args.parsed("epsilon")?.unwrap_or(0.5);
            let params = PlantedCfParams { n, m, k, epsilon };
            params.check()?;
            let inst = planted_cf_instance(&mut rng, params);
            write!(
                stdout,
                "c planted conflict-free instance: k = {k}, epsilon = {epsilon}, seed = {seed}\n{}",
                write_hypergraph(&inst.hypergraph)
            )
            .map_err(stdout_error)
        }
        Some("gnp") => {
            let n = args.required("n")?;
            let p: f64 = args.required("p")?;
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("--p must lie in [0, 1], got {p}"));
            }
            let g = gnp(&mut rng, n, p);
            write!(stdout, "c G({n}, {p}) seed = {seed}\n{}", write_graph(&g)).map_err(stdout_error)
        }
        other => Err(format!("unknown generator {other:?}; try 'planted' or 'gnp'")),
    }
}

fn cmd_stats(stdout: &mut Stdout) -> Result<(), String> {
    let text = read_stdin()?;
    if let Ok(g) = read_graph(&text) {
        return writeln!(stdout, "graph: {}", GraphStats::of(&g)).map_err(stdout_error);
    }
    let h = read_hypergraph(&text).map_err(|e| format!("not a graph nor a hypergraph: {e}"))?;
    writeln!(
        stdout,
        "hypergraph: {}\nalmost-uniform(0.5): {}",
        HypergraphStats::of(&h),
        h.is_almost_uniform(0.5)
    )
    .map_err(stdout_error)
}

fn cmd_maxis(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let opts = TraceOpts::from(args);
    let oracle = boxed_oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let g = read_graph(&read_stdin()?).map_err(|e| e.to_string())?;
    let set = if opts.wanted() {
        // One whole-graph call, spanned as the phase loop spans its calls.
        let tel = Telemetry::new(MemorySink::new());
        let call = span!(tel, names::ORACLE);
        call.add(Counter::OracleCalls, 1);
        let set = oracle.independent_set(&g);
        call.add(Counter::StalledSteps, oracle.stalled_steps() as u64);
        call.sample(Histogram::IndependentSetSize, set.len() as u64);
        call.close();
        opts.emit(tel.sink(), stdout)?;
        set
    } else {
        oracle.independent_set(&g)
    };
    writeln!(
        stdout,
        "c oracle = {}, |I| = {}, guarantee = {}",
        oracle.name(),
        set.len(),
        oracle.guarantee()
    )
    .map_err(stdout_error)?;
    for v in set.iter() {
        writeln!(stdout, "i {v}").map_err(stdout_error)?;
    }
    Ok(())
}

/// Parses `--checkpoint-dir` / `--resume` / `--crash-at` into a
/// [`Checkpointing`] request; the latter two require the former.
fn checkpoint_opt(args: &Args) -> Result<Option<Checkpointing>, String> {
    let Some(dir) = args.get("checkpoint-dir") else {
        for dependent in ["resume", "crash-at"] {
            if args.flag(dependent) {
                return Err(format!("--{dependent} requires --checkpoint-dir"));
            }
        }
        return Ok(None);
    };
    let mut ckpt = Checkpointing::new(dir);
    if args.flag("resume") {
        ckpt = ckpt.resuming();
    }
    if let Some(spec) = args.get("crash-at") {
        let (phase, point) = CrashPlan::parse_spec(spec).ok_or_else(|| {
            format!(
                "cannot parse --crash-at {spec:?} (want PHASE:POINT with POINT one of \
                 mid-oracle | after-oracle | before-journal | after-journal)"
            )
        })?;
        ckpt = ckpt.with_crash(CrashPlan::aborting(phase, point));
    }
    Ok(Some(ckpt))
}

/// Runs the trusting reduction, checkpointed when requested. The
/// recovery summary goes to **stderr**: stdout stays byte-diffable
/// between interrupted-and-resumed and uninterrupted runs.
fn run_reduce<S: pslocal::telemetry::Sink>(
    h: &pslocal::graph::Hypergraph,
    oracle: &dyn MaxIsOracle,
    config: ReductionConfig,
    ckpt: Option<&Checkpointing>,
    tel: &Telemetry<S>,
) -> Result<ReductionOutcome, String> {
    match ckpt {
        Some(c) => {
            let (out, report) = reduce_cf_to_maxis_resumable(h, oracle, config, c, tel)
                .map_err(|e| format!("reduction failed: {e}"))?;
            eprintln!("checkpoint: {report}");
            Ok(out)
        }
        None => reduce_cf_to_maxis_traced(h, oracle, config, tel)
            .map_err(|e| format!("reduction failed: {e}")),
    }
}

fn cmd_reduce(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let k = match args.required::<usize>("k")? {
        0 => return Err("--k must be at least 1".to_string()),
        k => k,
    };
    let opts = TraceOpts::from(args);
    let config = ReductionConfig { kernel: kernel_opt(args)?, ..ReductionConfig::new(k) };
    let oracle = boxed_oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let ckpt = checkpoint_opt(args)?;
    let h = read_hypergraph(&read_stdin()?).map_err(|e| e.to_string())?;
    let out = if opts.wanted() {
        let tel = Telemetry::new(MemorySink::new());
        let out = run_reduce(&h, oracle.as_ref(), config, ckpt.as_ref(), &tel)?;
        opts.emit(tel.sink(), stdout)?;
        out
    } else {
        run_reduce(&h, oracle.as_ref(), config, ckpt.as_ref(), &Telemetry::disabled())?
    };
    if !checker::is_conflict_free(&h, &out.coloring) {
        return Err("internal error: reduction returned a non-conflict-free coloring".to_string());
    }
    writeln!(
        stdout,
        "c oracle = {}, lambda = {:.2}, rho = {}, phases = {}, colors = {}",
        oracle.name(),
        out.lambda,
        out.rho,
        out.phases_used,
        out.total_colors
    )
    .map_err(stdout_error)?;
    for r in &out.records {
        writeln!(
            stdout,
            "c phase {} edges {} -> {} (|I| = {})",
            r.phase, r.edges_before, r.edges_after, r.independent_set_size
        )
        .map_err(stdout_error)?;
    }
    for v in 0..h.node_count() {
        let node = pslocal::graph::NodeId::new(v);
        let colors: Vec<String> =
            out.coloring.colors_of(node).iter().map(|c| c.to_string()).collect();
        writeln!(stdout, "v {v} {}", colors.join(" ")).map_err(stdout_error)?;
    }
    Ok(())
}

/// `pslocal batch` — the batched multi-instance serving front end (see
/// the BATCH section of the usage text for the JSONL schemas): the
/// server's line loop over stdin and stdout, waiting for queue room
/// instead of shedding its own input.
fn cmd_batch(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let workers = match args.parsed::<usize>("workers")?.unwrap_or(2) {
        0 => return Err("--workers must be at least 1".to_string()),
        w => w,
    };
    let queue = match args.parsed::<usize>("queue")?.unwrap_or(DEFAULT_QUEUE_CAPACITY) {
        0 => return Err("--queue must be at least 1".to_string()),
        q => q,
    };
    let default_deadline = args.parsed::<u64>("deadline-ms")?.map(Duration::from_millis);
    let opts = TraceOpts::from(args);

    // The aggregate feeds the summary below, as it feeds `serve`'s
    // drain summary; the memory sink is kept only for --trace and
    // --metrics-out.
    let stats = AggregateSink::default();
    let tel = Telemetry::new((stats.clone(), opts.wanted().then(MemorySink::new)));
    let service = Service::start(ServiceConfig::new(workers).with_queue_capacity(queue), tel);
    let started = Instant::now();
    let report = serve_lines(
        &service,
        std::io::stdin().lock(),
        &mut *stdout,
        Admission::Wait,
        default_deadline,
        &AtomicBool::new(false),
    );
    let tel = service.shutdown().telemetry;
    let wall = started.elapsed();
    if let Some(e) = report.write_error {
        return Err(stdout_error(e));
    }
    if let (_, Some(memory)) = tel.sink() {
        opts.emit(memory, stdout)?;
    }

    let [completed, deadline_exceeded, failed, bad] = [
        Counter::RequestsCompleted,
        Counter::DeadlinesExceeded,
        Counter::RequestsFailed,
        Counter::BadRequests,
    ]
    .map(|c| stats.counter(c.name()));
    let (p50, p99) =
        stats.histogram(Histogram::RequestLatencyNs.name()).map_or((0, 0), |h| (h.p50, h.p99));
    eprintln!(
        "batch: {} requests -> {} ok, {deadline_exceeded} deadline_exceeded, {failed} failed, \
         {bad} bad_request in {}ms ({workers} workers, queue {queue}; latency p50 = {}us, \
         p99 = {}us)",
        completed + bad,
        completed - deadline_exceeded - failed,
        wall.as_millis(),
        p50 / 1000,
        p99 / 1000,
    );
    report.first_bad.map_or(Ok(()), |(line, error)| Err(format!("stdin line {line}: {error}")))
}

/// Decodes a phase journal without re-running anything: header, open
/// stats (bytes kept vs. discarded) and one line per surviving phase.
fn cmd_checkpoint_inspect(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let dir = args.get("checkpoint-dir").ok_or("checkpoint-inspect needs --checkpoint-dir DIR")?;
    let (journal, stats) = inspect_journal(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    let head = journal.header();
    writeln!(
        stdout,
        "journal: driver = {}, k = {}, lambda = {:.4}, rho = {}, budget = {}, threads = {}\n\
         instance fingerprint: {:#018x}\n\
         oracle chain: {}\n\
         phases: {} ({} bytes on disk, {} bytes / {} records discarded as corrupt)",
        head.driver.name(),
        head.k,
        f64::from_bits(head.lambda_bits),
        head.rho,
        head.budget,
        head.threads,
        head.instance_fingerprint,
        head.oracle_names.join(" -> "),
        journal.phases().len(),
        stats.bytes_total,
        stats.bytes_discarded,
        stats.records_discarded,
    )
    .map_err(stdout_error)?;
    for p in journal.phases() {
        writeln!(
            stdout,
            "  phase {}: edges {} -> {}, |I| = {}, quota = {}, {}, calls = {:?}, \
             retries = {}, fallbacks = {}, events = {}",
            p.phase,
            p.record.edges_before,
            p.record.edges_after,
            p.set.len(),
            p.quota_required,
            if p.primary { "primary" } else { "fallback" },
            p.chain_calls,
            p.retries,
            p.fallbacks,
            p.events.len(),
        )
        .map_err(stdout_error)?;
        for e in &p.events {
            writeln!(stdout, "    event: attempt {} [{}]: {}", e.attempt, e.oracle, e.kind)
                .map_err(stdout_error)?;
        }
    }
    Ok(())
}

fn cmd_trace_report(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let n: usize = args.parsed("n")?.unwrap_or(128);
    let m: usize = args.parsed("m")?.unwrap_or(n / 2);
    let k: usize = args.parsed("k")?.unwrap_or(4);
    let params = PlantedCfParams::new(n, m, k);
    params.check()?;
    let oracle = boxed_oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let opts = TraceOpts::from(args);

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inst = planted_cf_instance(&mut rng, params);
    let tel = Telemetry::new(MemorySink::new());
    let out =
        reduce_cf_to_maxis_traced(&inst.hypergraph, oracle.as_ref(), ReductionConfig::new(k), &tel)
            .map_err(|e| format!("reduction failed: {e}"))?;
    if !checker::is_conflict_free(&inst.hypergraph, &out.coloring) {
        return Err("internal error: reduction returned a non-conflict-free coloring".to_string());
    }
    let sink = tel.into_sink();

    let spans = sink.spans();
    let timeline = PhaseTimeline::from_spans(&spans)
        .ok_or("no reduction span recorded (telemetry pipeline broken?)")?;
    write!(
        stdout,
        "trace-report: planted n={n} m={m} k={k} oracle={} seed={seed:#x}\n\
         reduction: lambda = {:.2}, rho = {}, phases = {}, colors = {}, {}\n\n{}\n{}",
        oracle.name(),
        out.lambda,
        out.rho,
        out.phases_used,
        out.total_colors,
        out.locality,
        timeline.render(),
        render_tree(&spans)
    )
    .map_err(stdout_error)?;
    if let Some(path) = &opts.metrics_out {
        append_events_jsonl(path, &sink)?;
        eprintln!("appended telemetry events to {path}");
    }
    Ok(())
}

/// Process-level shutdown signals for `pslocal serve`.
///
/// The workspace is hermetic (no `libc`, no `signal-hook`), so on Unix
/// this registers handlers through the one C function the platform
/// already links into every process: `signal(2)`. The handler only
/// stores into a static atomic — the async-signal-safe subset — and the
/// serve loop polls [`requested`]. On non-Unix targets the module
/// degrades to "never requested": the server still drains via the
/// client `SHUTDOWN` command.
#[cfg(unix)]
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn handle(_signum: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Routes SIGINT and SIGTERM into [`requested`].
    pub fn install() {
        // pslocal: allow(unsafe-ffi, "signal handler registration: libc signal() has no safe wrapper in a dependency-free workspace; the handler only stores a relaxed atomic flag")
        unsafe {
            signal(SIGINT, handle);
            signal(SIGTERM, handle);
        }
    }

    /// True once a shutdown signal has been delivered.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
mod signals {
    pub fn install() {}

    pub fn requested() -> bool {
        false
    }
}

/// `pslocal serve` — the batch protocol over TCP (see the SERVE section
/// of the usage text). Runs until SIGINT/SIGTERM or a client `SHUTDOWN`
/// command, then drains every admitted request and prints a final
/// stats snapshot to stderr.
fn cmd_serve(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171").to_string();
    let workers = match args.parsed::<usize>("workers")?.unwrap_or(2) {
        0 => return Err("--workers must be at least 1".to_string()),
        w => w,
    };
    let queue = match args.parsed::<usize>("queue-depth")?.unwrap_or(DEFAULT_QUEUE_CAPACITY) {
        0 => return Err("--queue-depth must be at least 1".to_string()),
        q => q,
    };
    let max_conns = match args.parsed::<usize>("max-conns")?.unwrap_or(DEFAULT_MAX_CONNECTIONS) {
        0 => return Err("--max-conns must be at least 1".to_string()),
        c => c,
    };

    let mut config = ServerConfig::default()
        .with_service(ServiceConfig::new(workers).with_queue_capacity(queue))
        .with_max_connections(max_conns);
    if let Some(ms) = args.parsed::<u64>("deadline-ms")? {
        config = config.with_default_deadline(Duration::from_millis(ms));
    }

    // Live, bounded aggregates answer the STATS command; the optional
    // JSONL sink streams every raw event to a metrics artifact.
    let stats = AggregateSink::default();
    let jsonl = match args.get("metrics-out") {
        None => None,
        Some(path) => {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open {path}: {e}"))?;
            Some(JsonlSink::new(std::io::BufWriter::new(file)))
        }
    };
    let tel = Telemetry::new((stats.clone(), jsonl));

    signals::install();
    let server = Server::start(addr.as_str(), config, tel)
        .map_err(|e| format!("cannot bind {addr}: {e}"))?;
    // Port 0 binds an ephemeral port — print the *resolved* address so
    // scripts (and the CI smoke test) can discover it.
    writeln!(stdout, "listening on {}", server.local_addr())
        .and_then(|()| stdout.flush())
        .map_err(stdout_error)?;
    eprintln!(
        "serve: {workers} workers, queue {queue}, max {max_conns} connections \
         (SIGINT/SIGTERM or a client SHUTDOWN drains gracefully)"
    );

    while !server.is_draining() && !signals::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("serve: draining...");
    // Responses go straight to their connections, so the drain is
    // counted as the outcome counters' growth across `shutdown`.
    // `requests_completed` is read first: workers bump it after the
    // outcome counters, so no outcome's growth can exceed its growth.
    let outcomes = || {
        [Counter::RequestsCompleted, Counter::DeadlinesExceeded, Counter::RequestsFailed]
            .map(|c| stats.counter(c.name()))
    };
    let before = outcomes();
    let tel = server.shutdown();
    let after = outcomes();
    let [completed, deadline_exceeded, failed] = std::array::from_fn(|i| after[i] - before[i]);
    eprintln!(
        "serve: drained {completed} in-flight requests ({} ok, {deadline_exceeded} \
         deadline_exceeded, {failed} failed)",
        completed - deadline_exceeded - failed,
    );
    eprint!("{}", stats.render());
    // Dropping the telemetry pipeline flushes the JSONL metrics
    // artifact's buffered tail.
    drop(tel);
    Ok(())
}

/// `pslocal client` — a line-oriented helper for talking to a running
/// `pslocal serve`: sends stdin (or one `--stats` / `--shutdown` /
/// `--ping` command), half-closes the write side, and streams every
/// response line to stdout, as it arrives, until the server is done.
fn cmd_client(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let addr = args.get("addr").unwrap_or("127.0.0.1:7171");
    let payload = if args.flag("stats") {
        "STATS\n".to_string()
    } else if args.flag("shutdown") {
        "SHUTDOWN\n".to_string()
    } else if args.flag("ping") {
        "PING\n".to_string()
    } else {
        let mut text = read_stdin()?;
        if !text.ends_with('\n') {
            text.push('\n');
        }
        text
    };

    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("cannot connect to {addr}: {e}"))?;
    stream.write_all(payload.as_bytes()).map_err(|e| format!("cannot send to {addr}: {e}"))?;
    // Half-close: the server sees EOF after our last request but the
    // read side stays open for every pending response.
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| format!("cannot half-close {addr}: {e}"))?;
    let mut chunk = [0u8; 8192];
    loop {
        let n = stream.read(&mut chunk).map_err(|e| format!("cannot read from {addr}: {e}"))?;
        if n == 0 {
            return Ok(());
        }
        // `read` returned at most `chunk.len()` bytes.
        stdout.write_all(&chunk[..n]).and_then(|()| stdout.flush()).map_err(stdout_error)?;
    }
}

/// `pslocal lint`: run the static-analysis passes over the workspace
/// tree and report findings (text or JSON). With `--deny`, any
/// surviving finding fails the command — the CI gate.
fn cmd_lint(args: &Args, stdout: &mut Stdout) -> Result<(), String> {
    let root = args.get("root").unwrap_or(".");
    let analysis = pslocal_analysis::analyze(std::path::Path::new(root))
        .map_err(|e| format!("cannot analyze {root}: {e}"))?;
    let report = if args.flag("lock-order") {
        analysis.lock_report.render()
    } else if args.flag("json") {
        pslocal_analysis::render_json(
            &analysis.findings,
            analysis.files_scanned,
            analysis.suppressed,
        )
    } else {
        format!(
            "{}{} finding(s), {} suppressed, {} files scanned\n",
            pslocal_analysis::render_text(&analysis.findings, args.flag("fix-hints")),
            analysis.findings.len(),
            analysis.suppressed,
            analysis.files_scanned
        )
    };
    stdout.write_all(report.as_bytes()).map_err(stdout_error)?;
    if args.flag("deny") && !analysis.findings.is_empty() {
        return Err(format!("lint: {} finding(s) with --deny", analysis.findings.len()));
    }
    Ok(())
}

/// The one writer every command's stdout goes through. It holds no
/// stdout lock between writes, and `dispatch` flushes it once after
/// the command returns; a command that must show a line at once
/// (`serve`'s address, `batch` results, `client` replies) flushes
/// itself.
type Stdout = std::io::BufWriter<std::io::Stdout>;

/// A subcommand's entry point.
type Command = fn(&Args, &mut Stdout) -> Result<(), String>;

/// Every subcommand with the number of positional arguments it takes
/// after its name and the options it accepts — exactly those USAGE
/// lists. `dispatch` rejects any other `--key` or positional argument
/// before the command runs, so a misspelled option fails instead of
/// silently taking a default.
const COMMANDS: &[(&str, usize, &[&str], Command)] = &[
    ("gen", 1, &["n", "m", "k", "epsilon", "p", "seed"], cmd_gen),
    ("stats", 0, &[], |_, stdout| cmd_stats(stdout)),
    ("maxis", 0, &["oracle", "seed", "trace", "metrics-out"], cmd_maxis),
    (
        "reduce",
        0,
        &[
            "k",
            "oracle",
            "seed",
            "kernel",
            "checkpoint-dir",
            "resume",
            "crash-at",
            "trace",
            "metrics-out",
        ],
        cmd_reduce,
    ),
    (
        "trace-report",
        0,
        &["n", "m", "k", "oracle", "seed", "trace", "metrics-out"],
        cmd_trace_report,
    ),
    ("batch", 0, &["workers", "queue", "deadline-ms", "trace", "metrics-out"], cmd_batch),
    (
        "serve",
        0,
        &["addr", "workers", "queue-depth", "max-conns", "deadline-ms", "metrics-out"],
        cmd_serve,
    ),
    ("client", 0, &["addr", "stats", "shutdown", "ping"], cmd_client),
    ("checkpoint-inspect", 0, &["checkpoint-dir"], cmd_checkpoint_inspect),
    ("lint", 0, &["root", "deny", "json", "fix-hints", "lock-order"], cmd_lint),
    ("help", 0, &[], |_, stdout| writeln!(stdout, "{USAGE}").map_err(stdout_error)),
];

fn dispatch() -> Result<(), String> {
    let mut stdout = Stdout::new(std::io::stdout());
    let result = run_command(&mut stdout);
    // Flushed on failure too: what a command wrote before it failed
    // still goes out.
    let flushed = stdout.flush().map_err(stdout_error);
    result.and(flushed)
}

fn run_command(stdout: &mut Stdout) -> Result<(), String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    // `--help` anywhere, or `-h` first, means `help`.
    if raw.iter().any(|a| a == "--help") || raw.first().is_some_and(|a| a == "-h") {
        return writeln!(stdout, "{USAGE}").map_err(stdout_error);
    }
    let args = Args::parse(raw.into_iter())?;
    let name = args.positional.first().map_or("help", String::as_str);
    let (_, positionals, accepted, run) = COMMANDS
        .iter()
        .find(|(command, ..)| *command == name)
        .ok_or_else(|| format!("unknown command {name:?}\n{USAGE}"))?;
    if let Some(extra) = args.positional.get(1 + positionals) {
        return Err(format!("unexpected argument {extra:?} for '{name}'"));
    }
    if let Some((key, _)) = args.options.iter().find(|(key, _)| !accepted.contains(&key.as_str())) {
        return Err(format!("unknown option --{key} for '{name}'"));
    }
    run(&args, stdout)
}

fn main() -> ExitCode {
    match dispatch() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
