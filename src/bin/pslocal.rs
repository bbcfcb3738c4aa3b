//! `pslocal` — command-line front end for the reproduction stack.
//!
//! ```text
//! pslocal gen planted --n 80 --m 40 --k 4 [--seed S] > instance.hg
//! pslocal gen gnp --n 100 --p 0.05 [--seed S]        > graph.g
//! pslocal stats    < instance.hg | graph.g
//! pslocal maxis  [--oracle NAME] [--threads T] [--seed S]       < graph.g
//! pslocal reduce --k 4 [--oracle NAME] [--threads T] [--seed S] < instance.hg
//! ```
//!
//! Oracles: `exact`, `greedy`, `luby`, `clique-removal`, `decomposition`.
//! Inputs use the text formats of `pslocal_graph::io`. `--threads T`
//! opts into component-parallel execution: disconnected (conflict)
//! graphs are solved one connected component per worker, merged
//! deterministically (see `pslocal_core::components`).

use pslocal::cfcolor::checker;
use pslocal::core::protocol::{self, kernel_by_name, parse_request, rejected_line, response_line};
use pslocal::core::{
    inspect_journal, parallel_independent_set, reduce_cf_to_maxis, reduce_cf_to_maxis_resumable,
    reduce_cf_to_maxis_traced, BoxedOracle, Checkpointing, ConflictGraph, CrashPlan,
    ParallelismOptions, ReductionConfig, ReductionOutcome, RequestOutcome, ResilientConfig, Server,
    ServerConfig, Service, ServiceConfig, ServiceRequest, ServiceResponse, DEFAULT_MAX_CONNECTIONS,
    DEFAULT_QUEUE_CAPACITY,
};
use pslocal::graph::generators::hyper::{
    multi_component_cf_instance, planted_cf_instance, PlantedCfParams,
};
use pslocal::graph::generators::random::gnp;
use pslocal::graph::io::{read_graph, read_hypergraph, write_graph, write_hypergraph};
use pslocal::graph::{GraphStats, HypergraphStats, KernelStrategy};
use pslocal::maxis::{
    CliqueRemovalOracle, DecompositionOracle, ExactOracle, GreedyOracle, LubyOracle, MaxIsOracle,
    TracedOracle,
};
use pslocal::telemetry::{
    event_to_json, render_tree, AggregateSink, Counter, JsonlSink, MemorySink, PhaseTimeline,
    Telemetry,
};
use rand::SeedableRng;
use std::io::{Read as _, Write as _};
use std::process::ExitCode;
use std::time::{Duration, Instant};

const USAGE: &str = "\
pslocal — P-SLOCAL-completeness of MaxIS approximation, executable

USAGE:
  pslocal gen planted --n N --m M --k K [--epsilon E] [--seed S]
  pslocal gen gnp --n N --p P [--seed S]
  pslocal stats                 (reads a graph or hypergraph on stdin)
  pslocal maxis [--oracle O] [--threads T] [--seed S]        (graph on stdin)
  pslocal reduce --k K [--oracle O] [--threads T] [--seed S]
                 [--kernel auto|csr|bitset] [--oracle-cache] (hypergraph on stdin)
  pslocal trace-report [--n N] [--m M] [--k K] [--oracle O] [--seed S]
                                (run a planted reduction, render the
                                 span tree + per-phase timeline)
  pslocal batch [--workers W] [--queue Q] [--deadline-ms D]
                                (JSONL requests on stdin, one JSONL
                                 result line per request on stdout,
                                 completion order)
  pslocal serve --addr HOST:PORT [--workers W] [--queue-depth Q]
                [--max-conns C] [--deadline-ms D] [--metrics-out FILE]
                                (the batch protocol over TCP; prints
                                 'listening on ADDR', serves until
                                 SIGINT/SIGTERM or a client SHUTDOWN,
                                 then drains gracefully)
  pslocal client --addr HOST:PORT [--stats | --shutdown | --ping]
                                (send stdin JSONL requests — or one
                                 command — and stream the responses)
  pslocal bench-report [--oracle O] [--seed S] [--iters I] [--threads T]
                       [--out FILE]
                                (perf baseline -> BENCH_reduction.json)
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
                        is byte-identical to an uninterrupted run
  --crash-at P:POINT    abort the process at an injected kill point
                        (phase P at mid-oracle | after-oracle |
                         before-journal | after-journal) — for
                        crash-recovery testing

PARALLELISM (maxis / reduce / bench-report):
  --threads T           solve connected components on up to T workers
                        (default 1 = serial; results are identical for
                         every thread count, merged by component id)

KERNEL (reduce):
  --kernel K            adjacency kernel for the phase conflict graphs:
                        auto (default; density heuristic), csr, bitset.
                        Identical output on every route, only the cost
                        differs
  --oracle-cache        memoize whole-phase oracle answers by conflict-
                        graph fingerprint (hits re-verified, counted as
                        oracle_cache_hit instead of oracle_calls)

BATCH (batched multi-instance serving):
  stdin: one flat JSON object per line. Fields: \"id\" (string,
  required), \"n\"/\"m\"/\"k\"/\"seed\"/\"epsilon\" (planted instance;
  defaults 128 / n/2 / 4 / 0xC0FFEE / 0.5), \"oracle\" (comma-separated
  fallback chain, default greedy), \"kernel\" (auto|csr|bitset),
  \"oracle_cache\" (bool; accepted and ignored: the resilient driver
  has no memo), \"deadline_ms\" (per-request override), \"faults\"
  (comma script injected into the primary oracle: - | panic |
  invalid-set | empty-set | under-deliver | stall:N).
  stdout: one JSON line per request in completion order —
    {\"id\":..,\"outcome\":\"ok\",\"phases\":P,\"set_size\":S,\"colors\":C}
    {\"id\":..,\"outcome\":\"deadline_exceeded\",\"phase\":P}
    {\"id\":..,\"outcome\":\"rejected\"}          (admission queue full)
    {\"id\":..,\"outcome\":\"failed\",\"error\":..}
  --workers W           worker threads, each owning one long-lived
                        phase workspace (default 2)
  --queue Q             admission-queue bound (default 64); submissions
                        past it are rejected, never buffered unbounded
  --deadline-ms D       default per-request deadline, measured from
                        submission, enforced at phase boundaries

SERVE (the batch protocol over persistent TCP connections):
  Lines in, lines out — exactly the BATCH schemas, so sorted responses
  byte-match `pslocal batch` on the same requests. Extra typed lines:
    {\"id\":..,\"outcome\":\"rejected\"}    admission queue full (shed, not run)
    {\"outcome\":\"overloaded\",..}       connection cap reached, socket closed
    {\"outcome\":\"bad_request\",..}      unparseable request line
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

TELEMETRY (maxis / reduce / batch / trace-report / bench-report):
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
const BOOLEAN_FLAGS: &[&str] = &[
    "trace",
    "resume",
    "oracle-cache",
    "stats",
    "shutdown",
    "ping",
    "deny",
    "json",
    "fix-hints",
    "lock-order",
];

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

/// Parses `--threads` (default 1 = serial) into [`ParallelismOptions`],
/// rejecting 0 with a CLI error instead of the library's panic.
fn threads_opt(args: &Args) -> Result<ParallelismOptions, String> {
    match args.parsed::<usize>("threads")?.unwrap_or(1) {
        0 => Err("--threads must be at least 1".to_string()),
        t => Ok(ParallelismOptions::with_threads(t)),
    }
}

/// Parses `--kernel` (default auto) into a [`KernelStrategy`].
fn kernel_opt(args: &Args) -> Result<KernelStrategy, String> {
    kernel_by_name(args.get("kernel").unwrap_or("auto"))
}

fn oracle_by_name(name: &str, seed: u64) -> Result<Box<dyn MaxIsOracle>, String> {
    Ok(match name {
        "exact" => Box::new(ExactOracle),
        "greedy" => Box::new(GreedyOracle),
        "luby" => Box::new(LubyOracle::new(seed)),
        "clique-removal" => Box::new(CliqueRemovalOracle),
        "decomposition" => Box::new(DecompositionOracle::default()),
        other => return Err(format!("unknown oracle {other:?} (see --help)")),
    })
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

    /// Renders and/or persists what `sink` captured.
    fn emit(&self, sink: &MemorySink) -> Result<(), String> {
        if self.trace {
            print!("{}", render_tree(&sink.spans()));
        }
        if let Some(path) = &self.metrics_out {
            append_events_jsonl(path, sink, &[])?;
        }
        Ok(())
    }
}

/// Appends `sink`'s events to `path` as JSON Lines, preceded by the
/// given metadata line entries (already-serialized JSON objects).
fn append_events_jsonl(path: &str, sink: &MemorySink, meta: &[String]) -> Result<(), String> {
    use std::io::Write as _;
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("cannot open {path}: {e}"))?;
    let mut w = std::io::BufWriter::new(file);
    let mut write =
        |line: &str| writeln!(w, "{line}").map_err(|e| format!("cannot write {path}: {e}"));
    for line in meta {
        write(line)?;
    }
    for event in sink.events() {
        write(&event_to_json(&event))?;
    }
    Ok(())
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    match args.positional.get(1).map(String::as_str) {
        Some("planted") => {
            let n = args.required("n")?;
            let m = args.required("m")?;
            let k = args.required("k")?;
            let epsilon: f64 = args.parsed("epsilon")?.unwrap_or(0.5);
            let inst = planted_cf_instance(&mut rng, PlantedCfParams { n, m, k, epsilon });
            println!(
                "c planted conflict-free instance: k = {k}, epsilon = {epsilon}, seed = {seed}"
            );
            print!("{}", write_hypergraph(&inst.hypergraph));
            Ok(())
        }
        Some("gnp") => {
            let n = args.required("n")?;
            let p: f64 = args.required("p")?;
            let g = gnp(&mut rng, n, p);
            println!("c G({n}, {p}) seed = {seed}");
            print!("{}", write_graph(&g));
            Ok(())
        }
        other => Err(format!("unknown generator {other:?}; try 'planted' or 'gnp'")),
    }
}

fn cmd_stats() -> Result<(), String> {
    let text = read_stdin()?;
    if let Ok(g) = read_graph(&text) {
        println!("graph: {}", GraphStats::of(&g));
        return Ok(());
    }
    let h = read_hypergraph(&text).map_err(|e| format!("not a graph nor a hypergraph: {e}"))?;
    println!("hypergraph: {}", HypergraphStats::of(&h));
    println!("almost-uniform(0.5): {}", h.is_almost_uniform(0.5));
    Ok(())
}

fn cmd_maxis(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let opts = TraceOpts::from(args);
    let par = threads_opt(args)?;
    let oracle = oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let g = read_graph(&read_stdin()?).map_err(|e| e.to_string())?;
    let set = if opts.wanted() {
        let tel = Telemetry::new(MemorySink::new());
        let traced = TracedOracle::new(oracle.as_ref(), &tel);
        let set = parallel_independent_set(&g, &traced, par);
        opts.emit(tel.sink())?;
        set
    } else {
        parallel_independent_set(&g, oracle.as_ref(), par)
    };
    println!(
        "c oracle = {}, |I| = {}, guarantee = {}",
        oracle.name(),
        set.len(),
        oracle.guarantee()
    );
    for v in set.iter() {
        println!("i {v}");
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

fn cmd_reduce(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let k: usize = args.required("k")?;
    let opts = TraceOpts::from(args);
    let config = ReductionConfig {
        parallelism: threads_opt(args)?,
        kernel: kernel_opt(args)?,
        oracle_cache: args.flag("oracle-cache"),
        ..ReductionConfig::new(k)
    };
    let oracle = oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let ckpt = checkpoint_opt(args)?;
    let h = read_hypergraph(&read_stdin()?).map_err(|e| e.to_string())?;
    let out = if opts.wanted() {
        let tel = Telemetry::new(MemorySink::new());
        let out = run_reduce(&h, oracle.as_ref(), config, ckpt.as_ref(), &tel)?;
        opts.emit(tel.sink())?;
        out
    } else {
        run_reduce(&h, oracle.as_ref(), config, ckpt.as_ref(), &Telemetry::disabled())?
    };
    if !checker::is_conflict_free(&h, &out.coloring) {
        return Err("internal error: reduction returned a non-conflict-free coloring".to_string());
    }
    println!(
        "c oracle = {}, lambda = {:.2}, rho = {}, phases = {}, colors = {}",
        oracle.name(),
        out.lambda,
        out.rho,
        out.phases_used,
        out.total_colors
    );
    for r in &out.records {
        println!(
            "c phase {} edges {} -> {} (|I| = {})",
            r.phase, r.edges_before, r.edges_after, r.independent_set_size
        );
    }
    for v in 0..h.node_count() {
        let node = pslocal::graph::NodeId::new(v);
        let colors: Vec<String> =
            out.coloring.colors_of(node).iter().map(|c| c.to_string()).collect();
        println!("v {v} {}", colors.join(" "));
    }
    Ok(())
}

/// Nearest-rank percentile over an ascending sample vector.
fn percentile_ns(sorted: &[u128], p: f64) -> u128 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Drives one batch through the service: submit everything (emitting
/// `rejected` lines on backpressure), stream result lines in
/// completion order, drain, and hand the telemetry pipeline back.
fn run_batch<S: pslocal::telemetry::Sink + Send + Sync + 'static>(
    requests: Vec<ServiceRequest>,
    config: ServiceConfig,
    tel: Telemetry<S>,
) -> (Vec<ServiceResponse>, usize, Telemetry<S>) {
    let service = Service::start(config, tel);
    let mut responses = Vec::new();
    let mut rejected = 0usize;
    for request in requests {
        // Keep streaming completions while submitting, so stdout stays
        // live on long batches.
        while let Some(response) = service.try_recv() {
            println!("{}", response_line(&response));
            responses.push(response);
        }
        if let Err(full) = service.submit(request) {
            println!("{}", rejected_line(&full.request.id));
            rejected += 1;
        }
    }
    let report = service.shutdown();
    for response in report.drained {
        println!("{}", response_line(&response));
        responses.push(response);
    }
    (responses, rejected, report.telemetry)
}

/// `pslocal batch` — the batched multi-instance serving front end (see
/// the BATCH section of the usage text for the JSONL schemas).
fn cmd_batch(args: &Args) -> Result<(), String> {
    let workers = match args.parsed::<usize>("workers")?.unwrap_or(2) {
        0 => return Err("--workers must be at least 1".to_string()),
        w => w,
    };
    let queue = match args.parsed::<usize>("queue")?.unwrap_or(DEFAULT_QUEUE_CAPACITY) {
        0 => return Err("--queue must be at least 1".to_string()),
        q => q,
    };
    let default_deadline_ms = args.parsed::<u64>("deadline-ms")?;
    let opts = TraceOpts::from(args);

    let mut requests = Vec::new();
    for (index, line) in read_stdin()?.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let request = parse_request(line, default_deadline_ms.map(Duration::from_millis))
            .map_err(|e| format!("stdin line {}: {e}", index + 1))?;
        requests.push(request);
    }
    if requests.is_empty() {
        return Err("no batch requests on stdin (one JSON object per line)".to_string());
    }
    let total = requests.len();
    let config = ServiceConfig::new(workers).with_queue_capacity(queue);

    let started = Instant::now();
    let (responses, rejected) = if opts.wanted() {
        let (responses, rejected, tel) =
            run_batch(requests, config, Telemetry::new(MemorySink::new()));
        opts.emit(tel.sink())?;
        (responses, rejected)
    } else {
        let (responses, rejected, _) = run_batch(requests, config, Telemetry::disabled());
        (responses, rejected)
    };
    let wall = started.elapsed();

    let count = |label: &str| responses.iter().filter(|r| r.outcome.label() == label).count();
    let mut latencies: Vec<u128> = responses.iter().map(|r| r.latency.as_nanos()).collect();
    latencies.sort_unstable();
    eprintln!(
        "batch: {total} requests -> {} ok, {} deadline_exceeded, {} failed, {rejected} rejected \
         in {}ms ({workers} workers, queue {queue}; latency p50 = {}us, p99 = {}us)",
        count(protocol::OUTCOME_OK),
        count(protocol::OUTCOME_DEADLINE_EXCEEDED),
        count(protocol::OUTCOME_FAILED),
        wall.as_millis(),
        percentile_ns(&latencies, 50.0) / 1000,
        percentile_ns(&latencies, 99.0) / 1000,
    );
    Ok(())
}

/// Decodes a phase journal without re-running anything: header, open
/// stats (bytes kept vs. discarded) and one line per surviving phase.
fn cmd_checkpoint_inspect(args: &Args) -> Result<(), String> {
    let dir = args.get("checkpoint-dir").ok_or("checkpoint-inspect needs --checkpoint-dir DIR")?;
    let insp = inspect_journal(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
    let head = &insp.header;
    println!(
        "journal: driver = {}, k = {}, lambda = {:.4}, rho = {}, budget = {}, threads = {}",
        head.driver.name(),
        head.k,
        f64::from_bits(head.lambda_bits),
        head.rho,
        head.budget,
        head.threads,
    );
    println!("instance fingerprint: {:#018x}", head.instance_fingerprint);
    println!("oracle chain: {}", head.oracle_names.join(" -> "));
    println!(
        "phases: {} ({} bytes on disk, {} bytes / {} records discarded as corrupt)",
        insp.phases.len(),
        insp.stats.bytes_total,
        insp.stats.bytes_discarded,
        insp.stats.records_discarded,
    );
    for p in &insp.phases {
        println!(
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
        );
        for e in &p.events {
            println!("    event: attempt {} [{}]: {}", e.attempt, e.oracle, e.kind);
        }
    }
    Ok(())
}

fn cmd_trace_report(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let n: usize = args.parsed("n")?.unwrap_or(128);
    let m: usize = args.parsed("m")?.unwrap_or(n / 2);
    let k: usize = args.parsed("k")?.unwrap_or(4);
    let oracle = oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let opts = TraceOpts::from(args);

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k));
    let tel = Telemetry::new(MemorySink::new());
    let out =
        reduce_cf_to_maxis_traced(&inst.hypergraph, oracle.as_ref(), ReductionConfig::new(k), &tel)
            .map_err(|e| format!("reduction failed: {e}"))?;
    if !checker::is_conflict_free(&inst.hypergraph, &out.coloring) {
        return Err("internal error: reduction returned a non-conflict-free coloring".to_string());
    }
    let sink = tel.into_sink();

    println!("trace-report: planted n={n} m={m} k={k} oracle={} seed={:#x}", oracle.name(), seed);
    println!(
        "reduction: lambda = {:.2}, rho = {}, phases = {}, colors = {}, {}",
        out.lambda, out.rho, out.phases_used, out.total_colors, out.locality
    );
    let spans = sink.spans();
    let timeline = PhaseTimeline::from_spans(&spans)
        .ok_or("no reduction span recorded (telemetry pipeline broken?)")?;
    println!();
    print!("{}", timeline.render());
    println!();
    print!("{}", render_tree(&spans));
    if let Some(path) = &opts.metrics_out {
        append_events_jsonl(path, &sink, &[])?;
        eprintln!("appended telemetry events to {path}");
    }
    Ok(())
}

/// One sized measurement of `bench-report`.
struct BenchEntry {
    n: usize,
    m: usize,
    k: usize,
    conflict_nodes: usize,
    conflict_edges: usize,
    /// Adjacency route `KernelStrategy::Auto` resolves to on this
    /// instance's first-phase conflict graph (`"bitset"` or `"csr"`).
    kernel: &'static str,
    build_ns: u128,
    oracle_ns: u128,
    /// End-to-end reduction under the default `Auto` kernel.
    reduction_ns: u128,
    /// Same reduction with the kernel pinned to `Csr` — the same-host
    /// baseline the dense-route speedup claim is measured against.
    csr_reduction_ns: u128,
    phases: usize,
    /// Oracle-memoization counters from the instrumented run (cache
    /// enabled there so the columns are live; phase graphs within one
    /// reduction are all distinct, so expect `misses == phases`).
    oracle_cache_hits: u64,
    oracle_cache_misses: u64,
    /// Telemetry-derived split of one instrumented reduction run:
    /// conflict-graph construction (initial build + per-phase restricts),
    /// oracle time, commit time, and the whole reduction span.
    tel_build_ns: u64,
    tel_oracle_ns: u64,
    tel_commit_ns: u64,
    tel_reduction_ns: u64,
}

impl BenchEntry {
    fn build_ns_per_edge(&self) -> f64 {
        if self.conflict_edges == 0 {
            0.0
        } else {
            self.build_ns as f64 / self.conflict_edges as f64
        }
    }

    /// Csr-baseline over Auto speedup of the end-to-end reduction.
    fn kernel_speedup(&self) -> f64 {
        if self.reduction_ns == 0 {
            0.0
        } else {
            self.csr_reduction_ns as f64 / self.reduction_ns as f64
        }
    }
}

/// Median of `iters` timings of `f` (best-effort; `iters ≥ 1`).
fn median_ns<F: FnMut()>(iters: usize, mut f: F) -> u128 {
    let mut samples: Vec<u128> = (0..iters.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// The bench-report's component-parallel measurement: one reduction
/// over a disjoint union of planted copies, timed serial vs. `threads`
/// workers.
struct ParallelBench {
    copies: usize,
    n: usize,
    m: usize,
    k: usize,
    threads: usize,
    /// CPUs the host actually offers — the number that decides whether
    /// `threads` workers can speed anything up (1 CPU cannot).
    host_threads: usize,
    serial_ns: u128,
    parallel_ns: u128,
}

impl ParallelBench {
    fn speedup(&self) -> f64 {
        if self.parallel_ns == 0 {
            0.0
        } else {
            self.serial_ns as f64 / self.parallel_ns as f64
        }
    }
}

/// One worker-count measurement of the batch-service benchmark.
struct ServiceBenchRun {
    workers: usize,
    wall_ns: u128,
    p50_latency_ns: u128,
    p99_latency_ns: u128,
}

impl ServiceBenchRun {
    /// Completed requests per second at this pool size.
    fn throughput_rps(&self, instances: usize) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            instances as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// The batch-service benchmark: `instances` mixed dense/sparse planted
/// instances through [`Service`] at several pool sizes, against a plain
/// serial loop over the same resilient driver.
struct ServiceBench {
    instances: usize,
    host_threads: usize,
    sequential_ns: u128,
    runs: Vec<ServiceBenchRun>,
}

/// Measures the service block: 64 mixed instances (dense `(128, 64, 8)`
/// alternating with sparse `(384, 192, 4)`), sequential baseline plus
/// workers ∈ {1, 2, 4}.
fn bench_service(seed: u64) -> Result<ServiceBench, String> {
    const INSTANCES: usize = 64;
    let shapes = [(128usize, 64usize, 8usize), (384, 192, 4)];
    let prebuilt: Vec<(pslocal::graph::Hypergraph, usize)> = (0..INSTANCES)
        .map(|i| {
            let (n, m, k) = shapes[i % shapes.len()];
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ i as u64);
            (planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k)).hypergraph, k)
        })
        .collect();

    let start = Instant::now();
    for (h, k) in &prebuilt {
        let out = pslocal::core::reduce_cf_resilient(h, &[&GreedyOracle], ResilientConfig::new(*k))
            .map_err(|f| format!("sequential service baseline failed: {}", f.error))?;
        std::hint::black_box(out);
    }
    let sequential_ns = start.elapsed().as_nanos();

    let mut runs = Vec::new();
    for workers in [1usize, 2, 4] {
        let service = Service::start(
            ServiceConfig::new(workers).with_queue_capacity(INSTANCES),
            Telemetry::disabled(),
        );
        let start = Instant::now();
        for (i, (h, k)) in prebuilt.iter().enumerate() {
            let request = ServiceRequest::new(
                format!("bench-{i}"),
                h.clone(),
                vec![Box::new(GreedyOracle) as BoxedOracle],
                ResilientConfig::new(*k),
            );
            service.submit(request).map_err(|e| format!("bench submission rejected: {e}"))?;
        }
        let mut latencies: Vec<u128> = (0..INSTANCES)
            .map(|_| {
                let response = service.recv().ok_or("service worker pool died mid-bench")?;
                if let RequestOutcome::Failed { error } = &response.outcome {
                    return Err(format!("bench request {} failed: {error}", response.id));
                }
                Ok(response.latency.as_nanos())
            })
            .collect::<Result<_, String>>()?;
        let wall_ns = start.elapsed().as_nanos();
        service.shutdown();
        latencies.sort_unstable();
        runs.push(ServiceBenchRun {
            workers,
            wall_ns,
            p50_latency_ns: percentile_ns(&latencies, 50.0),
            p99_latency_ns: percentile_ns(&latencies, 99.0),
        });
    }
    Ok(ServiceBench {
        instances: INSTANCES,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        sequential_ns,
        runs,
    })
}

/// One client-concurrency measurement of the TCP-server benchmark.
struct ServerBenchRun {
    clients: usize,
    wall_ns: u128,
    p50_latency_ns: u128,
    p99_latency_ns: u128,
}

impl ServerBenchRun {
    /// Completed requests per second over the socket.
    fn throughput_rps(&self, requests: usize) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            requests as f64 / (self.wall_ns as f64 / 1e9)
        }
    }
}

/// The TCP-server benchmark: the same mixed request mix as the service
/// block, but over real loopback sockets through [`Server`] — wire
/// parse, admission, and socket writes included in every latency.
struct ServerBench {
    requests: usize,
    workers: usize,
    host_threads: usize,
    runs: Vec<ServerBenchRun>,
}

/// Measures the server block: 32 mixed JSONL requests against an
/// in-process [`Server`] (2 workers), driven by 1 sequential client
/// and by 4 concurrent client connections. Latency is synchronous and
/// client-side: one request on the wire, wait for its response line.
fn bench_server(seed: u64) -> Result<ServerBench, String> {
    use std::io::BufRead as _;
    const REQUESTS: usize = 32;
    const WORKERS: usize = 2;
    let shapes = [(128usize, 64usize, 8usize), (384, 192, 4)];
    let lines: Vec<String> = (0..REQUESTS)
        .map(|i| {
            let (n, m, k) = shapes[i % shapes.len()];
            format!(
                "{{\"id\":\"s-{i}\",\"n\":{n},\"m\":{m},\"k\":{k},\"seed\":{}}}",
                seed ^ i as u64
            )
        })
        .collect();

    let config = ServerConfig::default()
        .with_service(ServiceConfig::new(WORKERS).with_queue_capacity(REQUESTS));
    let server = Server::start("127.0.0.1:0", config, Telemetry::disabled())
        .map_err(|e| format!("bench server cannot bind: {e}"))?;
    let addr = server.local_addr();

    let drive = |batch: &[String]| -> Result<Vec<u128>, String> {
        let stream = std::net::TcpStream::connect(addr)
            .map_err(|e| format!("bench client cannot connect: {e}"))?;
        let mut writer = stream.try_clone().map_err(|e| format!("bench client clone: {e}"))?;
        let mut reader = std::io::BufReader::new(stream);
        let mut latencies = Vec::with_capacity(batch.len());
        for line in batch {
            let started = Instant::now();
            writer
                .write_all(format!("{line}\n").as_bytes())
                .map_err(|e| format!("bench client write: {e}"))?;
            let mut response = String::new();
            reader.read_line(&mut response).map_err(|e| format!("bench client read: {e}"))?;
            if !response.contains("\"outcome\":\"ok\"") {
                return Err(format!("bench request answered {}", response.trim()));
            }
            latencies.push(started.elapsed().as_nanos());
        }
        Ok(latencies)
    };

    let mut runs = Vec::new();
    for clients in [1usize, 4] {
        let started = Instant::now();
        let mut latencies: Vec<u128> = if clients == 1 {
            drive(&lines)?
        } else {
            // Round-robin split: every connection still sees the mixed
            // dense/sparse alternation.
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..clients)
                    .map(|c| {
                        let batch: Vec<String> =
                            lines.iter().skip(c).step_by(clients).cloned().collect();
                        scope.spawn(move || drive(&batch))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("bench client thread")).try_fold(
                    Vec::new(),
                    |mut all, result| {
                        all.extend(result?);
                        Ok::<_, String>(all)
                    },
                )
            })?
        };
        let wall_ns = started.elapsed().as_nanos();
        latencies.sort_unstable();
        runs.push(ServerBenchRun {
            clients,
            wall_ns,
            p50_latency_ns: percentile_ns(&latencies, 50.0),
            p99_latency_ns: percentile_ns(&latencies, 99.0),
        });
    }
    server.shutdown();
    Ok(ServerBench {
        requests: REQUESTS,
        workers: WORKERS,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        runs,
    })
}

fn cmd_bench_report(args: &Args) -> Result<(), String> {
    let seed: u64 = args.parsed("seed")?.unwrap_or(0xC0FFEE);
    let iters: usize = args.parsed("iters")?.unwrap_or(3);
    // The serial-vs-parallel comparison defaults to 4 workers.
    let threads = match args.parsed::<usize>("threads")?.unwrap_or(4) {
        0 => return Err("--threads must be at least 1".to_string()),
        t => t,
    };
    let oracle = oracle_by_name(args.get("oracle").unwrap_or("greedy"), seed)?;
    let out_path = args.get("out").unwrap_or("BENCH_reduction.json").to_string();
    let metrics_out = args.get("metrics-out").map(String::from);

    let grid: &[(usize, usize, usize)] =
        &[(64, 32, 4), (128, 64, 4), (128, 64, 8), (256, 128, 4), (384, 192, 4)];
    let mut entries = Vec::new();
    for &(n, m, k) in grid {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let inst = planted_cf_instance(&mut rng, PlantedCfParams::new(n, m, k));
        let h = &inst.hypergraph;
        let cg = ConflictGraph::build(h, k);
        let build_ns = median_ns(iters, || {
            std::hint::black_box(ConflictGraph::build(std::hint::black_box(h), k));
        });
        let oracle_ns = median_ns(iters, || {
            std::hint::black_box(oracle.independent_set(std::hint::black_box(cg.graph())));
        });
        let mut phases = 0usize;
        let mut failed: Option<String> = None;
        let mut timed_kernel = |kernel: KernelStrategy| {
            let mut config = ReductionConfig::new(k);
            config.kernel = kernel;
            median_ns(iters, || {
                match reduce_cf_to_maxis(h, oracle.as_ref(), config) {
                    Ok(out) => {
                        phases = out.phases_used;
                        std::hint::black_box(out);
                    }
                    Err(e) => {
                        failed = Some(format!("reduction failed on (n={n}, m={m}, k={k}): {e}"))
                    }
                };
            })
        };
        // Baseline first so `phases` ends up reflecting the Auto run
        // (they are identical by kernel invariance, but keep the
        // bookkeeping honest).
        let csr_reduction_ns = timed_kernel(KernelStrategy::Csr);
        let reduction_ns = timed_kernel(KernelStrategy::Auto);
        if let Some(message) = failed {
            return Err(message);
        }
        // Instrumented runs per grid point: the span tree attributes
        // the wall clock to build / oracle / commit, which the median
        // timings above cannot separate inside `reduce_cf_to_maxis`.
        // Best-of-`iters` keeps one-shot scheduling outliers (thread
        // spawn on the sharded build) out of the published split.
        // Memoization is enabled here so the cache columns are live.
        let mut traced_config = ReductionConfig::new(k);
        traced_config.oracle_cache = true;
        let mut best: Option<(PhaseTimeline, MemorySink)> = None;
        for _ in 0..iters.max(1) {
            let tel = Telemetry::new(MemorySink::new());
            reduce_cf_to_maxis_traced(h, oracle.as_ref(), traced_config, &tel)
                .map_err(|e| format!("reduction failed on (n={n}, m={m}, k={k}): {e}"))?;
            let sink = tel.into_sink();
            let timeline = PhaseTimeline::from_spans(&sink.spans())
                .ok_or("no reduction span recorded (telemetry pipeline broken?)")?;
            if best.as_ref().is_none_or(|(t, _)| timeline.total_ns < t.total_ns) {
                best = Some((timeline, sink));
            }
        }
        let (timeline, sink) = best.ok_or("bench-report produced no instrumented run")?;
        if let Some(path) = &metrics_out {
            let meta = format!(
                "{{\"meta\":\"bench-entry\",\"n\":{n},\"m\":{m},\"k\":{k},\"oracle\":\"{}\",\"seed\":{seed}}}",
                oracle.name()
            );
            append_events_jsonl(path, &sink, &[meta])?;
        }
        entries.push(BenchEntry {
            n,
            m,
            k,
            conflict_nodes: cg.node_count(),
            conflict_edges: cg.edge_count(),
            kernel: if cg.bitset().is_some() { "bitset" } else { "csr" },
            build_ns,
            oracle_ns,
            reduction_ns,
            csr_reduction_ns,
            phases,
            oracle_cache_hits: sink.counter_total(Counter::OracleCacheHits),
            oracle_cache_misses: sink.counter_total(Counter::OracleCacheMisses),
            tel_build_ns: timeline.build_ns,
            tel_oracle_ns: timeline.oracle_ns,
            tel_commit_ns: timeline.commit_ns,
            tel_reduction_ns: timeline.total_ns,
        });
    }

    // Component-parallel phase execution on a multi-component planted
    // instance (8 vertex-disjoint copies, so the conflict graph has ≥ 8
    // components): one full reduction, serial vs. `threads` workers.
    // Same work, same result (the executor is thread-count-invariant);
    // only the wall clock moves.
    let (pn, pm, pk, copies) = (128usize, 64usize, 8usize, 8usize);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let pinst = multi_component_cf_instance(&mut rng, PlantedCfParams::new(pn, pm, pk), copies);
    let ph = &pinst.hypergraph;
    let serial_cfg = ReductionConfig::new(pk);
    let parallel_cfg = serial_cfg.with_threads(threads);
    let mut failed: Option<String> = None;
    let mut timed_reduce = |cfg: ReductionConfig| {
        median_ns(iters, || match reduce_cf_to_maxis(ph, oracle.as_ref(), cfg) {
            Ok(out) => {
                std::hint::black_box(out);
            }
            Err(e) => failed = Some(format!("parallel bench reduction failed: {e}")),
        })
    };
    let serial_ns = timed_reduce(serial_cfg);
    let parallel_ns = timed_reduce(parallel_cfg);
    if let Some(message) = failed {
        return Err(message);
    }
    let parallel = ParallelBench {
        copies,
        n: ph.node_count(),
        m: ph.edge_count(),
        k: pk,
        threads,
        host_threads: std::thread::available_parallelism().map_or(1, |p| p.get()),
        serial_ns,
        parallel_ns,
    };

    // Batched serving: the same oracle over 64 mixed instances, serial
    // loop vs. the service's worker pool.
    let service = bench_service(seed)?;

    // The TCP front end: the same request mix over real loopback
    // sockets, sequential vs. concurrent clients.
    let server = bench_server(seed)?;

    // Hand-rolled JSON: the vendored serde stub has no serializer and
    // the container has no serde_json; the schema below is frozen so
    // future PRs can diff perf trajectories mechanically.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"schema\": \"pslocal-bench-reduction/v6\",\n");
    json.push_str(&format!("  \"oracle\": \"{}\",\n", oracle.name()));
    json.push_str(&format!("  \"seed\": {seed},\n"));
    json.push_str(&format!("  \"iters\": {iters},\n"));
    json.push_str("  \"entries\": [\n");
    for (i, e) in entries.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"n\": {}, \"m\": {}, \"k\": {}, \"conflict_nodes\": {}, \
             \"conflict_edges\": {}, \"kernel\": \"{}\", \"phases\": {}, \"build_ns\": {}, \
             \"oracle_ns\": {}, \"reduction_ns\": {}, \"csr_reduction_ns\": {}, \
             \"kernel_speedup\": {:.2}, \"build_ns_per_edge\": {:.2}, \
             \"oracle_cache_hits\": {}, \"oracle_cache_misses\": {}, \
             \"tel_build_ns\": {}, \"tel_oracle_ns\": {}, \"tel_commit_ns\": {}, \
             \"tel_reduction_ns\": {}}}{}\n",
            e.n,
            e.m,
            e.k,
            e.conflict_nodes,
            e.conflict_edges,
            e.kernel,
            e.phases,
            e.build_ns,
            e.oracle_ns,
            e.reduction_ns,
            e.csr_reduction_ns,
            e.kernel_speedup(),
            e.build_ns_per_edge(),
            e.oracle_cache_hits,
            e.oracle_cache_misses,
            e.tel_build_ns,
            e.tel_oracle_ns,
            e.tel_commit_ns,
            e.tel_reduction_ns,
            if i + 1 < entries.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"parallel\": {{\"copies\": {}, \"n\": {}, \"m\": {}, \"k\": {}, \
         \"threads\": {}, \"host_threads\": {}, \"serial_ns\": {}, \"parallel_ns\": {}, \
         \"speedup\": {:.2}}}\n",
        parallel.copies,
        parallel.n,
        parallel.m,
        parallel.k,
        parallel.threads,
        parallel.host_threads,
        parallel.serial_ns,
        parallel.parallel_ns,
        parallel.speedup(),
    ));
    // Convert the trailing newline of the parallel block into a comma
    // so the service block can follow it.
    json.truncate(json.len() - 1);
    json.push_str(",\n");
    json.push_str(&format!(
        "  \"service\": {{\"instances\": {}, \"host_threads\": {}, \"sequential_ns\": {}, \
         \"runs\": [\n",
        service.instances, service.host_threads, service.sequential_ns,
    ));
    for (i, run) in service.runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"wall_ns\": {}, \"throughput_rps\": {:.2}, \
             \"speedup_vs_sequential\": {:.2}, \"p50_latency_ns\": {}, \"p99_latency_ns\": {}}}{}\n",
            run.workers,
            run.wall_ns,
            run.throughput_rps(service.instances),
            if run.wall_ns == 0 { 0.0 } else { service.sequential_ns as f64 / run.wall_ns as f64 },
            run.p50_latency_ns,
            run.p99_latency_ns,
            if i + 1 < service.runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"server\": {{\"requests\": {}, \"workers\": {}, \"host_threads\": {}, \"runs\": [\n",
        server.requests, server.workers, server.host_threads,
    ));
    for (i, run) in server.runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"clients\": {}, \"wall_ns\": {}, \"throughput_rps\": {:.2}, \
             \"p50_latency_ns\": {}, \"p99_latency_ns\": {}}}{}\n",
            run.clients,
            run.wall_ns,
            run.throughput_rps(server.requests),
            run.p50_latency_ns,
            run.p99_latency_ns,
            if i + 1 < server.runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ]}\n");
    json.push_str("}\n");
    std::fs::write(&out_path, &json).map_err(|e| format!("cannot write {out_path}: {e}"))?;

    println!("wrote {out_path}");
    for e in &entries {
        println!(
            "n={} m={} k={}: |V|={} |E|={} [{}] build={}us oracle={}us reduce={}us \
             (csr {}us, {:.2}x; {} phases, {:.1} ns/edge, cache {}h/{}m)",
            e.n,
            e.m,
            e.k,
            e.conflict_nodes,
            e.conflict_edges,
            e.kernel,
            e.build_ns / 1000,
            e.oracle_ns / 1000,
            e.reduction_ns / 1000,
            e.csr_reduction_ns / 1000,
            e.kernel_speedup(),
            e.phases,
            e.build_ns_per_edge(),
            e.oracle_cache_hits,
            e.oracle_cache_misses,
        );
        println!(
            "    telemetry split: build={}us oracle={}us commit={}us total={}us",
            e.tel_build_ns / 1000,
            e.tel_oracle_ns / 1000,
            e.tel_commit_ns / 1000,
            e.tel_reduction_ns / 1000,
        );
    }
    println!(
        "parallel: {} copies of (n={}, m={}, k={}): serial={}us, {} threads={}us \
         ({:.2}x on a {}-CPU host)",
        parallel.copies,
        pn,
        pm,
        parallel.k,
        parallel.serial_ns / 1000,
        parallel.threads,
        parallel.parallel_ns / 1000,
        parallel.speedup(),
        parallel.host_threads,
    );
    println!(
        "service: {} mixed instances, sequential = {}ms ({}-CPU host)",
        service.instances,
        service.sequential_ns / 1_000_000,
        service.host_threads,
    );
    for run in &service.runs {
        println!(
            "    workers = {}: wall = {}ms, {:.1} req/s ({:.2}x vs sequential), \
             latency p50 = {}us, p99 = {}us",
            run.workers,
            run.wall_ns / 1_000_000,
            run.throughput_rps(service.instances),
            if run.wall_ns == 0 { 0.0 } else { service.sequential_ns as f64 / run.wall_ns as f64 },
            run.p50_latency_ns / 1000,
            run.p99_latency_ns / 1000,
        );
    }
    println!(
        "server: {} requests over loopback TCP ({} workers, {}-CPU host)",
        server.requests, server.workers, server.host_threads,
    );
    for run in &server.runs {
        println!(
            "    clients = {}: wall = {}ms, {:.1} req/s, latency p50 = {}us, p99 = {}us",
            run.clients,
            run.wall_ns / 1_000_000,
            run.throughput_rps(server.requests),
            run.p50_latency_ns / 1000,
            run.p99_latency_ns / 1000,
        );
    }
    if let Some(path) = &metrics_out {
        println!("appended telemetry events to {path}");
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
fn cmd_serve(args: &Args) -> Result<(), String> {
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
    println!("listening on {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| format!("cannot flush stdout: {e}"))?;
    eprintln!(
        "serve: {workers} workers, queue {queue}, max {max_conns} connections \
         (SIGINT/SIGTERM or a client SHUTDOWN drains gracefully)"
    );

    let handle = server.handle();
    while !handle.is_draining() && !signals::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    eprintln!("serve: draining...");
    let report = server.shutdown();
    let count = |label: &str| report.drained.iter().filter(|r| r.outcome.label() == label).count();
    eprintln!(
        "serve: drained {} in-flight requests ({} ok, {} deadline_exceeded, {} failed)",
        report.drained.len(),
        count(protocol::OUTCOME_OK),
        count(protocol::OUTCOME_DEADLINE_EXCEEDED),
        count(protocol::OUTCOME_FAILED),
    );
    eprint!("{}", stats.render());
    // Dropping the report drops the telemetry pipeline, flushing the
    // JSONL metrics artifact's buffered tail.
    drop(report);
    Ok(())
}

/// `pslocal client` — a line-oriented helper for talking to a running
/// `pslocal serve`: sends stdin (or one `--stats` / `--shutdown` /
/// `--ping` command), half-closes the write side, and streams every
/// response line to stdout until the server is done.
fn cmd_client(args: &Args) -> Result<(), String> {
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
    let mut stdout = std::io::stdout();
    std::io::copy(&mut stream, &mut stdout).map_err(|e| format!("cannot read from {addr}: {e}"))?;
    stdout.flush().map_err(|e| format!("cannot flush stdout: {e}"))?;
    Ok(())
}

/// `pslocal lint`: run the static-analysis passes over the workspace
/// tree and report findings (text or JSON). With `--deny`, any
/// surviving finding fails the command — the CI gate.
fn cmd_lint(args: &Args) -> Result<(), String> {
    let root = args.get("root").unwrap_or(".");
    let analysis = pslocal_analysis::analyze(std::path::Path::new(root))
        .map_err(|e| format!("cannot analyze {root}: {e}"))?;
    if args.flag("lock-order") {
        print!("{}", analysis.lock_report.render());
    } else if args.flag("json") {
        print!(
            "{}",
            pslocal_analysis::render_json(
                &analysis.findings,
                analysis.files_scanned,
                analysis.suppressed,
            )
        );
    } else {
        print!("{}", pslocal_analysis::render_text(&analysis.findings, args.flag("fix-hints")));
        println!(
            "{} finding(s), {} suppressed, {} files scanned",
            analysis.findings.len(),
            analysis.suppressed,
            analysis.files_scanned
        );
    }
    if args.flag("deny") && !analysis.findings.is_empty() {
        return Err(format!("lint: {} finding(s) with --deny", analysis.findings.len()));
    }
    Ok(())
}

fn dispatch() -> Result<(), String> {
    let args = Args::parse(std::env::args().skip(1))?;
    match args.positional.first().map(String::as_str) {
        Some("gen") => cmd_gen(&args),
        Some("stats") => cmd_stats(),
        Some("maxis") => cmd_maxis(&args),
        Some("reduce") => cmd_reduce(&args),
        Some("batch") => cmd_batch(&args),
        Some("serve") => cmd_serve(&args),
        Some("client") => cmd_client(&args),
        Some("trace-report") => cmd_trace_report(&args),
        Some("bench-report") => cmd_bench_report(&args),
        Some("checkpoint-inspect") => cmd_checkpoint_inspect(&args),
        Some("lint") => cmd_lint(&args),
        Some("help") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}\n{USAGE}")),
    }
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
