//! `walk`: the traced run. It calls each layer's public functions in
//! the order the drivers call them, times every call, and checks that
//! the walk reproduces the driver's result on every request. Beside
//! each walked request it runs the whole driver untraced on the same
//! input, which gives the coverage and overhead ratios.
//!
//! The serve workloads walk the resilient driver's serial path
//! (`reduce_cf_resilient_with_workspace`, as a service worker runs
//! it), between `protocol::parse_request` and `protocol::response_line`.
//! The reduce workload walks the trusting driver with a phase journal
//! (`reduce_cf_to_maxis_resumable`, as `pslocal reduce
//! --checkpoint-dir` runs it), after `io::read_hypergraph`.

use crate::prepare::{read_jobs, ReduceExpect, EXPECTED_FILE, REQUESTS_FILE};
use crate::workload::{planted, serve_pool, ServeRequest, Size, Workload};
use pslocal_cfcolor::{checker, Multicoloring};
use pslocal_core::protocol::{boxed_oracle_by_name, parse_request, response_line};
use pslocal_core::{
    apply_palette, fingerprint_hypergraph, lemma_2_1_quota, lemma_2_1b,
    reduce_cf_resilient_with_workspace, reduce_cf_to_maxis_resumable, stall_budget, Checkpointing,
    ConflictGraph, ConflictGraphOptions, DriverKind, JournalHeader, JournalPhase, PhaseJournal,
    PhaseRecord, PhaseWorkspace, ReductionConfig, RequestOutcome, ResilientConfig, Server,
    ServerConfig, Service, ServiceConfig, ServiceResponse,
};
use pslocal_graph::io::read_hypergraph;
use pslocal_graph::{
    BitsetScratch, HyperedgeId, Hypergraph, IndependentSet, KernelStrategy, Palette,
};
use pslocal_maxis::{ApproxGuarantee, MaxIsOracle};
use pslocal_telemetry::{AggregateSink, Histogram, Telemetry};
use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Layer totals over every walked request.
#[derive(Debug, Default)]
struct Tally {
    requests: u64,
    parse: Duration,
    encode: Duration,
    planted: Duration,
    read: Duration,
    build: Duration,
    builds: u64,
    bitset_builds: u64,
    build_edges: u64,
    restrict: Duration,
    fingerprint: Duration,
    lambda: Duration,
    oracle: Duration,
    oracle_calls: u64,
    accepted: u64,
    verify: Duration,
    commit: Duration,
    commits: u64,
    happy_edges: u64,
    journal_create: Duration,
    append: Duration,
    journal_bytes: u64,
    phases: u64,
    retries: u64,
    /// The whole driver call, untraced.
    driver: Duration,
    /// Parse or read, the driver, and encode, untraced.
    untraced: Duration,
    /// The same span of work, walked layer by layer.
    walked: Duration,
    divergences: Vec<String>,
}

impl Tally {
    /// Time the walk attributes to named layer calls inside the driver.
    fn driver_layers(&self) -> Duration {
        self.build
            + self.restrict
            + self.fingerprint
            + self.lambda
            + self.oracle
            + self.verify
            + self.commit
            + self.journal_create
            + self.append
    }
}

fn timed<T>(total: &mut Duration, f: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = f();
    *total += start.elapsed();
    out
}

/// What a walk (or a driver) reports about one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Walked {
    phases: usize,
    set_size: usize,
    colors: usize,
}

/// The oracle's λ on a phase graph, dense form first, as the drivers
/// compute it.
fn lambda_of(cg: &ConflictGraph, oracle: &dyn MaxIsOracle) -> Option<f64> {
    if let Some(bits) = cg.bitset() {
        if let Some(l) = oracle.lambda_for_dense(bits) {
            return Some(l);
        }
    }
    oracle.lambda_for(cg.graph())
}

/// Whether the oracle's λ is a per-instance certificate, which gates
/// the decay invariant and the Lemma 2.1 quota.
fn certified(oracle: &dyn MaxIsOracle) -> bool {
    matches!(oracle.guarantee(), ApproxGuarantee::Exact | ApproxGuarantee::MaxDegreePlusOne)
}

/// One oracle call on whichever representation the phase graph holds.
fn solve(
    cg: &ConflictGraph,
    oracle: &dyn MaxIsOracle,
    scratch: &mut BitsetScratch,
) -> IndependentSet {
    match cg.bitset() {
        Some(bits) if oracle.supports_dense() => oracle.independent_set_dense(bits, scratch),
        _ => oracle.independent_set(cg.graph()),
    }
}

/// The largest residual a certified phase may leave: `⌊(1 − 1/λ)·|E_i|⌋`.
fn decay_allowed(edges_before: usize, lambda: f64) -> usize {
    ((1.0 - 1.0 / lambda) * edges_before as f64).floor() as usize
}

/// The phase commit: decode `f_I` (Lemma 2.1 b), merge it under the
/// phase's fresh palette, and keep the edges still unhappy. Returns the
/// survivors' positions within the incoming residual.
fn commit(
    h: &Hypergraph,
    cg: &ConflictGraph,
    set: &IndependentSet,
    phase: usize,
    coloring: &mut Multicoloring,
    residual: &mut Vec<HyperedgeId>,
) -> Vec<HyperedgeId> {
    let decoded = lemma_2_1b(cg, set);
    coloring.merge(&apply_palette(&decoded.coloring, Palette::phase(cg.k(), phase)));
    let mut keep = Vec::new();
    let mut survivors = Vec::new();
    for (pos, &e) in residual.iter().enumerate() {
        if !checker::is_edge_happy(h, coloring, e) {
            keep.push(HyperedgeId::new(pos));
            survivors.push(e);
        }
    }
    *residual = survivors;
    keep
}

fn build(h: &Hypergraph, k: usize, kernel: KernelStrategy, t: &mut Tally) -> ConflictGraph {
    let options = ConflictGraphOptions::with_kernel(kernel);
    let cg = timed(&mut t.build, || ConflictGraph::build_with_options(h, k, options));
    t.builds += 1;
    t.bitset_builds += u64::from(cg.bitset().is_some());
    t.build_edges += cg.edge_count() as u64;
    cg
}

/// The resilient driver's serial phase loop, layer by layer: validate
/// each answer (independence, then the Lemma 2.1 quota for certified
/// oracles), retry and fall back along the chain, commit, restrict.
fn walk_resilient(
    h: &Hypergraph,
    chain: &[&dyn MaxIsOracle],
    config: ResilientConfig,
    scratch: &mut BitsetScratch,
    t: &mut Tally,
) -> Result<Walked, String> {
    let base = config.base;
    if base.parallelism.is_parallel() || base.lambda_override.is_some() || base.oracle_cache {
        return Err("the walk covers the serial, uncached path without a λ override".into());
    }
    let primary = *chain.first().ok_or("empty oracle chain")?;
    let mut cg = build(h, base.k, base.kernel, t);
    let lambda = timed(&mut t.lambda, || lambda_of(&cg, primary)).ok_or("no λ available")?;
    let rho = ReductionConfig::rho(lambda, h.edge_count());
    let budget = base.max_phases.unwrap_or(rho).min(rho);
    let enforce_decay = certified(primary) && lambda >= 1.0;
    let mut coloring = Multicoloring::new(h.node_count());
    let mut residual: Vec<HyperedgeId> = h.edge_ids().collect();
    let (mut phase, mut set_size) = (0usize, 0usize);
    while !residual.is_empty() && phase < budget {
        let edges_before = residual.len();
        let mut accepted = None;
        let mut attempts = 0usize;
        'chain: for (slot, &oracle) in chain.iter().enumerate() {
            for retry in 0..=config.max_retries {
                attempts += 1;
                t.oracle_calls += 1;
                let answer = timed(&mut t.oracle, || {
                    catch_unwind(AssertUnwindSafe(|| solve(&cg, oracle, scratch)))
                });
                let Ok(set) = answer else { continue };
                if oracle.stalled_steps() > stall_budget(config.stall_tolerance, retry) {
                    continue;
                }
                if !timed(&mut t.verify, || cg.verify_independent(&set)) {
                    continue;
                }
                if certified(oracle) {
                    let l = timed(&mut t.lambda, || lambda_of(&cg, oracle));
                    if l.is_some_and(|l| l >= 1.0 && set.len() < lemma_2_1_quota(edges_before, l)) {
                        continue;
                    }
                }
                accepted = Some((set, slot == 0));
                break 'chain;
            }
        }
        t.retries += attempts.saturating_sub(1) as u64;
        let (set, from_primary) =
            accepted.ok_or_else(|| format!("phase {phase}: every oracle attempt was rejected"))?;
        t.accepted += 1;
        let keep =
            timed(&mut t.commit, || commit(h, &cg, &set, phase, &mut coloring, &mut residual));
        t.commits += 1;
        t.happy_edges += (edges_before - residual.len()) as u64;
        if from_primary && enforce_decay && residual.len() > decay_allowed(edges_before, lambda) {
            return Err(format!("phase {phase}: decay invariant violated"));
        }
        set_size += set.len();
        phase += 1;
        if !residual.is_empty() && phase < budget {
            cg = timed(&mut t.restrict, || cg.restrict_to_edges(&keep));
        }
    }
    if !residual.is_empty() {
        return Err(format!("phase budget {budget} exhausted"));
    }
    t.phases += phase as u64;
    Ok(Walked { phases: phase, set_size, colors: coloring.total_color_count() })
}

/// The trusting driver's phase loop with a phase journal in `dir`:
/// fingerprint, oracle, commit, journal append, restrict.
fn walk_trusting(
    h: &Hypergraph,
    oracle: &dyn MaxIsOracle,
    k: usize,
    dir: &Path,
    scratch: &mut BitsetScratch,
    t: &mut Tally,
) -> Result<Walked, String> {
    let mut cg = build(h, k, KernelStrategy::Auto, t);
    let lambda = timed(&mut t.lambda, || lambda_of(&cg, oracle)).ok_or("no λ available")?;
    let rho = ReductionConfig::rho(lambda, h.edge_count());
    let enforce_decay = certified(oracle) && lambda >= 1.0;
    let header = JournalHeader {
        driver: DriverKind::Trusting,
        k,
        lambda_bits: lambda.to_bits(),
        rho,
        budget: rho,
        threads: 1,
        instance_fingerprint: fingerprint_hypergraph(h),
        oracle_names: vec![oracle.name().to_string()],
    };
    let mut journal = timed(&mut t.journal_create, || PhaseJournal::create(dir, header))
        .map_err(|e| format!("cannot create the walk's journal: {e}"))?;
    let header_bytes = fs::metadata(journal.path()).map_err(|e| e.to_string())?.len();
    let mut journal_bytes = header_bytes;
    let mut coloring = Multicoloring::new(h.node_count());
    let mut residual: Vec<HyperedgeId> = h.edge_ids().collect();
    let (mut phase, mut set_size) = (0usize, 0usize);
    while !residual.is_empty() && phase < rho {
        let edges_before = residual.len();
        let cg_fingerprint = timed(&mut t.fingerprint, || cg.fingerprint());
        let set = timed(&mut t.oracle, || solve(&cg, oracle, scratch));
        t.oracle_calls += 1;
        t.accepted += 1;
        let keep =
            timed(&mut t.commit, || commit(h, &cg, &set, phase, &mut coloring, &mut residual));
        let edges_after = residual.len();
        t.commits += 1;
        t.happy_edges += (edges_before - edges_after) as u64;
        if enforce_decay && edges_after > decay_allowed(edges_before, lambda) {
            return Err(format!("phase {phase}: decay invariant violated"));
        }
        let record = PhaseRecord {
            phase,
            edges_before,
            conflict_nodes: cg.node_count(),
            conflict_edges: cg.edge_count(),
            independent_set_size: set.len(),
            edges_removed: edges_before - edges_after,
            edges_after,
        };
        journal_bytes = timed(&mut t.append, || {
            journal.append_phase(JournalPhase {
                phase,
                cg_fingerprint,
                set: set.vertices().iter().map(|v| v.index() as u64).collect(),
                record,
                quota_required: 0,
                primary: true,
                chain_calls: vec![phase as u64 + 1],
                retries: 0,
                fallbacks: 0,
                events: Vec::new(),
            })
        })
        .map_err(|e| format!("cannot append to the walk's journal: {e}"))?;
        set_size += set.len();
        phase += 1;
        if !residual.is_empty() && phase < rho {
            cg = timed(&mut t.restrict, || cg.restrict_to_edges(&keep));
        }
    }
    if !residual.is_empty() {
        return Err(format!("phase budget {rho} exhausted"));
    }
    t.phases += phase as u64;
    t.journal_bytes += journal_bytes - header_bytes;
    Ok(Walked { phases: phase, set_size, colors: coloring.total_color_count() })
}

fn response_for(id: String, result: Result<Walked, String>) -> ServiceResponse {
    let outcome = match result {
        Ok(w) => RequestOutcome::Ok { phases: w.phases, set_size: w.set_size, colors: w.colors },
        Err(error) => RequestOutcome::Failed { error },
    };
    ServiceResponse { id, outcome, queue_wait: Duration::ZERO, latency: Duration::ZERO }
}

/// Walks one serve request, then runs it untraced through the whole
/// driver; the walk, the driver and the reference line must agree.
fn walk_serve_request(
    spec: &ServeRequest,
    line: &str,
    expected: &str,
    ws: &mut PhaseWorkspace,
    scratch: &mut BitsetScratch,
    t: &mut Tally,
) -> Result<(), String> {
    let start = Instant::now();
    let request = timed(&mut t.parse, || parse_request(line, None))?;
    let chain: Vec<&dyn MaxIsOracle> =
        request.chain.iter().map(|o| o.as_ref() as &dyn MaxIsOracle).collect();
    let walked = walk_resilient(&request.hypergraph, &chain, request.config, scratch, t);
    let response = response_for(request.id.clone(), walked);
    let walked_line = timed(&mut t.encode, || response_line(&response));
    t.walked += start.elapsed();

    // `parse_request` generates the instance today; this times the
    // generator alone with the request's parameters.
    timed(&mut t.planted, || planted(spec.seed, spec.n, spec.m, spec.k));

    let start = Instant::now();
    let request = parse_request(line, None)?;
    let chain: Vec<&dyn MaxIsOracle> =
        request.chain.iter().map(|o| o.as_ref() as &dyn MaxIsOracle).collect();
    let driver_start = Instant::now();
    let result = reduce_cf_resilient_with_workspace(
        &request.hypergraph,
        &chain,
        request.config,
        &Telemetry::disabled(),
        ws,
        None,
    );
    t.driver += driver_start.elapsed();
    let result = result
        .map(|out| Walked {
            phases: out.reduction.phases_used,
            set_size: out.reduction.records.iter().map(|r| r.independent_set_size).sum(),
            colors: out.reduction.total_colors,
        })
        .map_err(|failure| failure.error.to_string());
    let driver_line = response_line(&response_for(request.id, result));
    t.untraced += start.elapsed();
    t.requests += 1;
    if walked_line != driver_line || driver_line != expected {
        t.divergences.push(format!(
            "{}: walk {walked_line} driver {driver_line} reference {expected}",
            spec.id
        ));
    }
    Ok(())
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    match fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot clear {}: {e}", dir.display())),
    }
}

/// Walks one reduce job, then runs it untraced through the
/// checkpointed trusting driver. Results and journal bytes must match.
fn walk_reduce_job(
    inputs: &Path,
    work: &Path,
    job: &ReduceExpect,
    scratch: &mut BitsetScratch,
    t: &mut Tally,
) -> Result<(), String> {
    let text = fs::read_to_string(inputs.join(&job.file))
        .map_err(|e| format!("cannot read {}: {e}", job.file))?;
    let walk_dir = work.join("walk-journal");
    let driver_dir = work.join("driver-journal");
    fresh_dir(&walk_dir)?;
    fresh_dir(&driver_dir)?;

    let start = Instant::now();
    let h = timed(&mut t.read, || read_hypergraph(&text)).map_err(|e| e.to_string())?;
    let oracle = boxed_oracle_by_name(&job.oracle, job.seed)?;
    let walked = walk_trusting(&h, oracle.as_ref(), job.k, &walk_dir, scratch, t);
    t.walked += start.elapsed();

    // The harness generated this instance before timing started; this
    // is what generating it costs.
    timed(&mut t.planted, || planted(job.seed, h.node_count(), h.edge_count(), job.k));

    let start = Instant::now();
    let h = read_hypergraph(&text).map_err(|e| e.to_string())?;
    let oracle = boxed_oracle_by_name(&job.oracle, job.seed)?;
    let driver_start = Instant::now();
    let result = reduce_cf_to_maxis_resumable(
        &h,
        oracle.as_ref(),
        ReductionConfig::new(job.k),
        &Checkpointing::new(&driver_dir),
        &Telemetry::disabled(),
    );
    t.driver += driver_start.elapsed();
    t.untraced += start.elapsed();
    t.requests += 1;

    let driver = result.map(|(out, _)| Walked {
        phases: out.phases_used,
        set_size: out.records.iter().map(|r| r.independent_set_size).sum(),
        colors: out.total_colors,
    });
    let reference = Walked { phases: job.phases, set_size: job.set_size, colors: job.colors };
    let same_journal = fs::read(PhaseJournal::file_path(&walk_dir)).ok()
        == fs::read(PhaseJournal::file_path(&driver_dir)).ok();
    if walked.as_ref().ok() != Some(&reference)
        || driver.as_ref().ok() != Some(&reference)
        || !same_journal
    {
        t.divergences.push(format!(
            "{}: walk {walked:?} driver {driver:?} reference {reference:?} \
             journals identical: {same_journal}",
            job.file
        ));
    }
    Ok(())
}

/// Mean queue wait through an in-process [`Service`] with the serve
/// default of two workers, `clients` requests in flight (closed loop).
fn service_queue_wait(
    lines: &[String],
    clients: usize,
    budget: Duration,
) -> Result<Duration, String> {
    let service = Service::start(ServiceConfig::new(2), Telemetry::disabled());
    let (tx, rx) = mpsc::channel();
    let start = Instant::now();
    let mut next = 0usize;
    let submit = |next: &mut usize| -> Result<(), String> {
        let request = parse_request(&lines[*next % lines.len()], None)?;
        *next += 1;
        service.submit_routed(request, tx.clone()).map_err(|full| full.to_string())
    };
    for _ in 0..clients {
        submit(&mut next)?;
    }
    let (mut in_flight, mut served, mut wait) = (clients, 0u64, Duration::ZERO);
    while in_flight > 0 {
        let response = rx.recv().map_err(|_| "the service stopped early")?;
        in_flight -= 1;
        served += 1;
        wait += response.queue_wait;
        if start.elapsed() < budget || served < lines.len() as u64 {
            submit(&mut next)?;
            in_flight += 1;
        }
    }
    service.shutdown();
    Ok(wait / served.max(1) as u32)
}

/// Closed-loop round trips through an in-process [`Server`] over
/// `clients` loopback connections. Returns the mean round trip minus
/// the mean service latency, and the count of mismatched responses.
fn server_overhead(
    lines: &[String],
    expected: &[String],
    clients: usize,
    budget: Duration,
) -> Result<(Duration, u64), String> {
    let stats = AggregateSink::new();
    let server =
        Server::start("127.0.0.1:0", ServerConfig::default(), Telemetry::new(stats.clone()))
            .map_err(|e| format!("cannot start the in-process server: {e}"))?;
    let addr = server.local_addr();
    let cursor = AtomicUsize::new(0);
    let start = Instant::now();
    let client = || -> Result<(Duration, u64, u64), String> {
        let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let mut reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        let (mut rtt, mut served, mut bad) = (Duration::ZERO, 0u64, 0u64);
        let mut response = String::new();
        while start.elapsed() < budget || cursor.load(Ordering::Relaxed) < lines.len() {
            let i = cursor.fetch_add(1, Ordering::Relaxed) % lines.len();
            let sent = Instant::now();
            stream.write_all(format!("{}\n", lines[i]).as_bytes()).map_err(|e| e.to_string())?;
            response.clear();
            reader.read_line(&mut response).map_err(|e| e.to_string())?;
            rtt += sent.elapsed();
            served += 1;
            bad += u64::from(response.trim_end() != expected[i]);
        }
        Ok((rtt, served, bad))
    };
    let results: Vec<Result<(Duration, u64, u64), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients).map(|_| s.spawn(client)).collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("a client thread panicked".to_string())))
            .collect()
    });
    server.shutdown();
    let (mut rtt, mut served, mut bad) = (Duration::ZERO, 0u64, 0u64);
    for r in results {
        let (r_rtt, r_served, r_bad) = r?;
        rtt += r_rtt;
        served += r_served;
        bad += r_bad;
    }
    let latency = stats
        .histogram(Histogram::RequestLatencyNs.name())
        .ok_or("the server recorded no request latency")?;
    let round_trip = rtt / served.max(1) as u32;
    Ok((round_trip.saturating_sub(Duration::from_nanos(latency.mean())), bad))
}

/// The per-layer metrics by `BENCHMARK.json` name, which also gives
/// their units.
type Metrics = Vec<(&'static str, f64)>;

fn per_request(total: Duration, requests: u64, scale: f64) -> f64 {
    total.as_secs_f64() * scale / requests.max(1) as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn metrics(t: &Tally, serve: bool, queue_wait: Duration, server_overhead: Duration) -> Metrics {
    let r = t.requests;
    let (ms, us) = (1e3, 1e6);
    // Per-request figures of the driver that the workload does not run
    // read 0.
    let (resilient, reduction) =
        if serve { (t.driver, Duration::ZERO) } else { (Duration::ZERO, t.driver) };
    let (phases_resilient, phases_reduction) = if serve { (t.phases, 0) } else { (0, t.phases) };
    vec![
        ("protocol.parse_us", per_request(t.parse, r, us)),
        ("protocol.encode_us", per_request(t.encode, r, us)),
        ("generators.planted_us", per_request(t.planted, r, us)),
        ("io.read_hypergraph_ms", per_request(t.read, r, ms)),
        ("conflict_graph.build_ms", per_request(t.build, r, ms)),
        (
            "conflict_graph.build_ns_per_edge",
            ratio(t.build.as_secs_f64() * 1e9, t.build_edges as f64),
        ),
        ("conflict_graph.edges", ratio(t.build_edges as f64, t.builds as f64)),
        ("conflict_graph.bitset_share", ratio(t.bitset_builds as f64, t.builds as f64)),
        ("conflict_graph.restrict_ms", per_request(t.restrict, r, ms)),
        ("conflict_graph.fingerprint_ms", per_request(t.fingerprint, r, ms)),
        ("maxis.lambda_us", per_request(t.lambda, r, us)),
        ("maxis.oracle_ms", per_request(t.oracle, r, ms)),
        ("maxis.calls_per_req", ratio(t.oracle_calls as f64, r as f64)),
        ("maxis.accept_ratio", ratio(t.accepted as f64, t.oracle_calls as f64)),
        ("correspondence.commit_ms", per_request(t.commit, r, ms)),
        ("correspondence.happy_edges", ratio(t.happy_edges as f64, t.commits as f64)),
        ("recovery.create_ms", per_request(t.journal_create, r, ms)),
        ("recovery.append_ms", per_request(t.append, r, ms)),
        (
            "recovery.bytes_per_phase",
            if serve { 0.0 } else { ratio(t.journal_bytes as f64, t.phases as f64) },
        ),
        ("resilient.reduce_ms", per_request(resilient, r, ms)),
        ("resilient.verify_ms", per_request(t.verify, r, ms)),
        ("resilient.phases_per_req", ratio(phases_resilient as f64, r as f64)),
        ("resilient.retries_per_req", ratio(t.retries as f64, r as f64)),
        ("reduction.reduce_ms", per_request(reduction, r, ms)),
        ("reduction.phases_per_req", ratio(phases_reduction as f64, r as f64)),
        ("service.queue_wait_ms", queue_wait.as_secs_f64() * ms),
        ("server.overhead_us", server_overhead.as_secs_f64() * us),
        ("walk.coverage", ratio(t.driver_layers().as_secs_f64(), t.driver.as_secs_f64())),
        ("walk.overhead", ratio(t.walked.as_secs_f64(), t.untraced.as_secs_f64())),
        ("walk.fidelity", ratio((r - t.divergences.len() as u64) as f64, r as f64)),
    ]
}

fn read_lines(path: &Path) -> Result<Vec<String>, String> {
    let text =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Ok(text.lines().map(str::to_string).collect())
}

/// A finite JSON number (JSON has no NaN or infinity).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// Runs the traced walk of `workload` over the inputs `prepare` wrote
/// to `inputs` for `seed`, for about `seconds` (at least one pass over
/// every input); serve workloads keep the workload's client count of
/// requests in flight in the service and server measurements. Returns
/// one JSON line: requests attempted, requests whose walk diverged from
/// the driver, and the per-layer metrics.
pub fn walk(
    workload: Workload,
    seed: u64,
    size: Size,
    inputs: &Path,
    work: &Path,
    seconds: f64,
) -> Result<String, String> {
    let clients = workload.clients();
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let mut t = Tally::default();
    let mut scratch = BitsetScratch::new();
    let mut extra_failed = 0u64;
    let (queue_wait, overhead, serve) = if workload == Workload::ReduceCheckpointed {
        fs::create_dir_all(work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
        let jobs = read_jobs(inputs)?;
        let start = Instant::now();
        while t.requests < jobs.len() as u64 || start.elapsed() < budget {
            let job = &jobs[t.requests as usize % jobs.len()];
            walk_reduce_job(inputs, work, job, &mut scratch, &mut t)?;
        }
        fresh_dir(work)?;
        (Duration::ZERO, Duration::ZERO, false)
    } else {
        let pool = serve_pool(workload, seed, size);
        let lines = read_lines(&inputs.join(REQUESTS_FILE))?;
        let expected = read_lines(&inputs.join(EXPECTED_FILE))?;
        let generated: Vec<String> = pool.iter().map(ServeRequest::line).collect();
        if lines != generated || expected.len() != lines.len() {
            return Err("the prepared inputs are not this workload's and seed's".to_string());
        }
        // Most of the budget walks the layers; the rest measures queue
        // wait and socket overhead on the same requests.
        let start = Instant::now();
        let mut ws = PhaseWorkspace::new();
        while t.requests < pool.len() as u64 || start.elapsed() < budget.mul_f64(0.6) {
            let i = t.requests as usize % pool.len();
            walk_serve_request(&pool[i], &lines[i], &expected[i], &mut ws, &mut scratch, &mut t)?;
        }
        let wait = service_queue_wait(&lines, clients, budget.mul_f64(0.2))?;
        let (overhead, bad) = server_overhead(&lines, &expected, clients, budget.mul_f64(0.2))?;
        extra_failed += bad;
        (wait, overhead, true)
    };
    let metrics = metrics(&t, serve, queue_wait, overhead);
    let body: Vec<String> =
        metrics.iter().map(|(name, value)| format!("\"{name}\":{}", json_number(*value))).collect();
    let divergences: Vec<String> = t
        .divergences
        .iter()
        .take(5)
        .map(|d| format!("\"{}\"", d.replace('\\', "\\\\").replace('"', "\\\"")))
        .collect();
    Ok(format!(
        "{{\"attempted\":{},\"failed\":{},\"divergent\":{},\"metrics\":{{{}}},\"divergences\":[{}]}}",
        t.requests,
        t.divergences.len() as u64 + extra_failed,
        t.divergences.len(),
        body.join(","),
        divergences.join(",")
    ))
}
