//! Batch-service equivalence suite: the serving layer is an execution
//! vehicle, never a semantic one. The same requests run serially, via
//! [`Service`] at 1/2/4 workers, and with mid-batch fault injection
//! must produce byte-identical result lines once sorted by request id;
//! a stalled oracle must yield `deadline_exceeded` without poisoning
//! its worker's long-lived workspace for the next request.

use pslocal::core::{
    reduce_cf_resilient, reduce_cf_resilient_with_workspace, BoxedOracle, PhaseWorkspace,
    ReductionError, RequestOutcome, ResilientConfig, Service, ServiceConfig, ServiceRequest,
};
use pslocal::graph::generators::hyper::{planted_cf_instance, PlantedCfParams};
use pslocal::graph::{Graph, Hypergraph, IndependentSet};
use pslocal::maxis::{
    ApproxGuarantee, FaultKind, FaultPlan, FaultyOracle, GreedyOracle, MaxIsOracle, PrecisionOracle,
};
use pslocal::telemetry::Telemetry;
use rand::SeedableRng;
use std::io::Write as _;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// One request recipe, replayable into fresh (stateful) oracle chains.
struct Spec {
    id: &'static str,
    n: usize,
    m: usize,
    k: usize,
    seed: u64,
    /// Scripted faults for the primary oracle (`None` = clean run).
    faults: Option<Vec<Option<FaultKind>>>,
}

/// A mixed batch: dense and sparse instances, clean and faulty chains.
/// The faulty scripts stay within the resilient driver's default retry
/// budget (2 retries), so every request still ends `ok`.
fn specs() -> Vec<Spec> {
    use FaultKind::{EmptySet, InvalidSet, Panic, UnderDeliver};
    vec![
        Spec { id: "dense-0", n: 96, m: 48, k: 8, seed: 11, faults: None },
        Spec { id: "sparse-0", n: 192, m: 96, k: 4, seed: 12, faults: None },
        Spec { id: "faulty-panic", n: 64, m: 32, k: 4, seed: 13, faults: Some(vec![Some(Panic)]) },
        Spec {
            id: "faulty-mixed",
            n: 80,
            m: 40,
            k: 4,
            seed: 14,
            faults: Some(vec![Some(EmptySet), Some(InvalidSet)]),
        },
        Spec {
            id: "faulty-late",
            n: 72,
            m: 36,
            k: 3,
            seed: 15,
            faults: Some(vec![None, Some(UnderDeliver)]),
        },
        Spec { id: "dense-1", n: 128, m: 64, k: 8, seed: 16, faults: None },
        Spec { id: "sparse-1", n: 160, m: 80, k: 4, seed: 17, faults: None },
        Spec { id: "tiny", n: 24, m: 10, k: 3, seed: 18, faults: None },
    ]
}

fn instance(spec: &Spec) -> Hypergraph {
    let mut rng = rand::rngs::StdRng::seed_from_u64(spec.seed);
    planted_cf_instance(&mut rng, PlantedCfParams::new(spec.n, spec.m, spec.k)).hypergraph
}

/// Builds a fresh oracle chain for `spec` — fresh because `FaultyOracle`
/// consumes its script per call, so chains cannot be shared across runs.
fn chain(spec: &Spec) -> Vec<BoxedOracle> {
    let greedy: BoxedOracle = Box::new(GreedyOracle);
    match &spec.faults {
        None => vec![greedy],
        Some(script) => {
            vec![Box::new(FaultyOracle::new(greedy, FaultPlan::scripted(script.clone())))]
        }
    }
}

fn request(spec: &Spec) -> ServiceRequest {
    ServiceRequest::new(spec.id, instance(spec), chain(spec), ResilientConfig::new(spec.k))
}

/// The serial ground truth: each spec through the resilient driver
/// directly, no service in sight.
fn serial_outcome(spec: &Spec) -> RequestOutcome {
    let h = instance(spec);
    let boxed = chain(spec);
    let refs: Vec<&dyn MaxIsOracle> =
        boxed.iter().map(|o| o.as_ref() as &dyn MaxIsOracle).collect();
    match reduce_cf_resilient(&h, &refs, ResilientConfig::new(spec.k)) {
        Ok(out) => RequestOutcome::Ok {
            phases: out.reduction.phases_used,
            set_size: out.reduction.records.iter().map(|r| r.independent_set_size).sum(),
            colors: out.reduction.total_colors,
        },
        Err(failure) => RequestOutcome::Failed { error: failure.error.to_string() },
    }
}

/// Runs the whole batch through a service at `workers` and returns
/// `(id, outcome)` pairs sorted by id.
fn batch_outcomes(workers: usize) -> Vec<(String, RequestOutcome)> {
    let specs = specs();
    let service = Service::start(
        ServiceConfig::new(workers).with_queue_capacity(specs.len()),
        Telemetry::disabled(),
    );
    for spec in &specs {
        service.submit(request(spec)).expect("queue sized for the whole batch");
    }
    let mut out: Vec<(String, RequestOutcome)> = (0..specs.len())
        .map(|_| service.recv().expect("worker pool alive"))
        .map(|r| (r.id, r.outcome))
        .collect();
    let report = service.shutdown();
    assert!(report.drained.is_empty(), "all responses were received before shutdown");
    out.sort_by(|a, b| a.0.cmp(&b.0));
    out
}

#[test]
fn service_matches_serial_at_every_worker_count() {
    let mut expected: Vec<(String, RequestOutcome)> =
        specs().iter().map(|s| (s.id.to_string(), serial_outcome(s))).collect();
    expected.sort_by(|a, b| a.0.cmp(&b.0));
    // Every request — including the fault-injected ones — recovers to
    // the exact serial result, at every pool size.
    assert!(expected.iter().all(|(_, o)| matches!(o, RequestOutcome::Ok { .. })));
    for workers in [1, 2, 4] {
        assert_eq!(batch_outcomes(workers), expected, "workers = {workers}");
    }
}

/// A multi-phase oracle that stalls for real wall-clock time on every
/// call — the shape of a slow or partitioned oracle process.
struct SleepyOracle {
    inner: PrecisionOracle,
    sleep: Duration,
}

impl MaxIsOracle for SleepyOracle {
    fn name(&self) -> &'static str {
        "sleepy"
    }

    fn independent_set(&self, graph: &Graph) -> IndependentSet {
        std::thread::sleep(self.sleep);
        self.inner.independent_set(graph)
    }

    fn guarantee(&self) -> ApproxGuarantee {
        self.inner.guarantee()
    }
}

#[test]
fn stalled_oracle_exceeds_deadline_without_poisoning_the_workspace() {
    // PrecisionOracle(4) needs ≥ 2 phases on this instance (pinned
    // below), so a deadline shorter than one oracle call expires at the
    // phase-1 boundary: the run stops cooperatively after a whole
    // committed phase instead of mid-oracle.
    let spec = Spec { id: "stalled", n: 40, m: 18, k: 3, seed: 31, faults: None };
    let h = instance(&spec);
    let multi_phase =
        reduce_cf_resilient(&h, &[&PrecisionOracle::new(4.0)], ResilientConfig::new(spec.k))
            .expect("clean run succeeds");
    assert!(multi_phase.reduction.phases_used >= 2, "need a multi-phase run to stall");

    let service = Service::start(ServiceConfig::new(1), Telemetry::disabled());
    let sleepy: BoxedOracle = Box::new(SleepyOracle {
        inner: PrecisionOracle::new(4.0),
        sleep: Duration::from_millis(80),
    });
    service
        .submit(
            ServiceRequest::new("stalled", h, vec![sleepy], ResilientConfig::new(spec.k))
                .with_deadline(Duration::from_millis(40)),
        )
        .unwrap();
    let stalled = service.recv().expect("one response");
    match stalled.outcome {
        RequestOutcome::DeadlineExceeded { phase } => {
            assert!(phase >= 1, "phase 0 always gets to run (checked at the boundary)")
        }
        other => panic!("expected deadline_exceeded, got {other:?}"),
    }

    // The single worker that just timed out must serve the next request
    // byte-identically to the serial ground truth.
    let clean = &specs()[0];
    service.submit(request(clean)).unwrap();
    let healthy = service.recv().expect("one response");
    service.shutdown();
    assert_eq!(healthy.outcome, serial_outcome(clean));
}

#[test]
fn request_expiring_in_the_queue_drains_as_deadline_exceeded() {
    // A single busy worker: the first request holds it long enough for
    // the second request's deadline to expire while it is still
    // *queued*. The drain must still answer the expired request — with
    // `deadline_exceeded` at phase 0, since nothing of it ever ran —
    // rather than hanging or silently dropping it.
    let service = Service::start(ServiceConfig::new(1), Telemetry::disabled());
    let spec = Spec { id: "blocker", n: 40, m: 18, k: 3, seed: 31, faults: None };
    let blocker: BoxedOracle = Box::new(SleepyOracle {
        inner: PrecisionOracle::new(4.0),
        sleep: Duration::from_millis(120),
    });
    service
        .submit(ServiceRequest::new(
            "blocker",
            instance(&spec),
            vec![blocker],
            ResilientConfig::new(spec.k),
        ))
        .unwrap();
    let doomed = &specs()[0];
    service.submit(request(doomed).with_deadline(Duration::from_millis(10))).unwrap();

    // Shut down without receiving anything: the drain owns both
    // responses and must deliver both.
    let report = service.shutdown();
    assert_eq!(report.drained.len(), 2, "the drain answers every admitted request");
    let expired =
        report.drained.iter().find(|r| r.id == doomed.id).expect("queued request is drained");
    assert_eq!(
        expired.outcome,
        RequestOutcome::DeadlineExceeded { phase: 0 },
        "a request dead on arrival at its worker is answered without running"
    );
    let served = report.drained.iter().find(|r| r.id == "blocker").expect("blocker drained");
    assert!(matches!(served.outcome, RequestOutcome::Ok { .. }), "blocker ran to completion");
}

#[test]
#[allow(clippy::result_large_err)] // `ResilientFailure` carries the salvaged partial outcome
fn expired_deadline_on_a_zero_edge_instance_is_exceeded_at_phase_0() {
    // With no edges the phase loop never runs, so only the check before
    // the `G_k` build can see the deadline.
    let h = Hypergraph::from_edges(6, Vec::<Vec<usize>>::new()).unwrap();
    let run = |deadline| {
        reduce_cf_resilient_with_workspace(
            &h,
            &[&GreedyOracle],
            ResilientConfig::new(3),
            &Telemetry::disabled(),
            &mut PhaseWorkspace::new(),
            Some(deadline),
        )
    };
    let expired = run(Instant::now()).expect_err("an overdue run must not answer ok");
    assert_eq!(expired.error, ReductionError::DeadlineExceeded { phase: 0 });
    assert!(expired.partial.records.is_empty());
    let on_time = run(Instant::now() + Duration::from_secs(60)).expect("nothing to do, in time");
    assert_eq!(on_time.reduction.phases_used, 0);
}

// ---------------------------------------------------------------------
// CLI-level equivalence: the `pslocal batch` subcommand end to end.
// ---------------------------------------------------------------------

fn run_cli(args: &[&str], stdin: impl AsRef<[u8]>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pslocal"));
    cmd.args(args).stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary spawns");
    child.stdin.as_mut().unwrap().write_all(stdin.as_ref()).expect("stdin written");
    child.wait_with_output().expect("binary finishes")
}

/// A mixed JSONL batch mirroring `specs()`, with mid-batch fault
/// injection riding on the `faults` field.
fn jsonl_batch() -> String {
    [
        r#"{"id":"dense-0","n":96,"m":48,"k":8,"seed":11}"#,
        r#"{"id":"faulty-panic","n":64,"m":32,"k":4,"seed":13,"faults":"panic"}"#,
        r#"{"id":"sparse-0","n":192,"m":96,"k":4,"seed":12}"#,
        r#"{"id":"faulty-mixed","n":80,"m":40,"k":4,"seed":14,"faults":"empty-set,invalid-set"}"#,
        r#"{"id":"chained","n":72,"m":36,"k":3,"seed":15,"oracle":"greedy,exact"}"#,
        r#"{"id":"kernel-pinned","n":64,"m":32,"k":4,"seed":16,"kernel":"bitset"}"#,
    ]
    .join("\n")
}

fn sorted_result_lines(out: &Output) -> Vec<String> {
    let mut lines: Vec<String> =
        String::from_utf8_lossy(&out.stdout).lines().map(String::from).collect();
    lines.sort();
    lines
}

#[test]
fn cli_batch_fails_an_oversized_conflict_graph_and_answers_the_rest() {
    // The middle request's one hyperedge has at least 1024 vertices at
    // k = 1024: over 10^12 row entries, past the u32 CSR offsets, and
    // over a million nodes, past the bit-row bound when bit rows are
    // forced. Either kernel refuses it before allocating, so only that
    // request fails, with the reason and no panic; an allocation that
    // size used to abort the process with no line for any of the three.
    for (huge, reason) in [
        (
            r#"{"id":"huge","n":4096,"m":1,"k":1024}"#,
            "1550481948672 row entries overflow the u32 CSR offsets",
        ),
        (
            r#"{"id":"huge","n":4096,"m":1,"k":1024,"kernel":"bitset"}"#,
            "1245184 nodes exceed the 32768-node bound of the bit rows",
        ),
    ] {
        let batch = [
            r#"{"id":"a","n":64,"m":32,"k":3,"seed":1}"#,
            huge,
            r#"{"id":"b","n":48,"m":20,"k":3,"seed":2}"#,
        ]
        .join("\n");
        let out = run_cli(&["batch", "--workers", "1"], &batch);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{huge}: {stderr}");
        assert!(!stderr.contains("panicked"), "{huge}: {stderr}");
        let lines = sorted_result_lines(&out);
        assert_eq!(lines.len(), 3, "one result line per request: {lines:?}");
        assert!(lines[0].starts_with(r#"{"id":"a","outcome":"ok""#), "{lines:?}");
        assert!(lines[1].starts_with(r#"{"id":"b","outcome":"ok""#), "{lines:?}");
        assert_eq!(
            lines[2],
            format!(
                r#"{{"id":"huge","outcome":"failed","error":"conflict graph too large: {reason}"}}"#
            )
        );
    }
}

#[test]
fn cli_batch_is_byte_identical_across_worker_counts() {
    let batch = jsonl_batch();
    let baseline = run_cli(&["batch", "--workers", "1"], &batch);
    assert!(baseline.status.success(), "stderr: {}", String::from_utf8_lossy(&baseline.stderr));
    let expected = sorted_result_lines(&baseline);
    assert_eq!(expected.len(), 6);
    assert!(expected.iter().all(|l| l.contains("\"outcome\":\"ok\"")), "lines: {expected:?}");
    for workers in [2, 4] {
        let out = run_cli(&["batch", "--workers", &workers.to_string()], &batch);
        assert!(out.status.success(), "workers = {workers}");
        assert_eq!(sorted_result_lines(&out), expected, "workers = {workers}");
    }
}

#[test]
fn cli_batch_reports_deadline_and_rejection_outcomes() {
    // Zero-deadline request: cooperative cancellation before phase 0.
    let out = run_cli(
        &["batch", "--workers", "1"],
        r#"{"id":"doomed","n":64,"m":32,"k":4,"deadline_ms":0}"#,
    );
    assert!(out.status.success());
    assert_eq!(
        sorted_result_lines(&out),
        [r#"{"id":"doomed","outcome":"deadline_exceeded","phase":0}"#]
    );

    // A queue of 1 behind a single worker holds at most one request in
    // flight: batch waits for room instead of rejecting its own input,
    // so every request runs.
    let batch = jsonl_batch();
    let out = run_cli(&["batch", "--workers", "1", "--queue", "1"], &batch);
    assert!(out.status.success());
    let lines = sorted_result_lines(&out);
    assert_eq!(lines.len(), 6, "one result line per request: {lines:?}");
    assert!(lines.iter().all(|l| l.contains("\"outcome\":\"ok\"")), "lines: {lines:?}");
    let summary = String::from_utf8_lossy(&out.stderr);
    assert!(summary.contains("6 requests"), "stderr: {summary}");
}

#[test]
fn cli_batch_waits_for_queue_room_instead_of_rejecting() {
    let batch: Vec<String> =
        (0..300).map(|i| format!(r#"{{"id":"r{i}","n":128,"m":64,"k":4}}"#)).collect();
    let out = run_cli(&["batch"], batch.join("\n"));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let lines = sorted_result_lines(&out);
    assert_eq!(lines.len(), 300);
    let ok = lines.iter().filter(|l| l.contains("\"outcome\":\"ok\"")).count();
    assert_eq!(ok, 300, "default flags answer every clean line ok");
}

/// Peak RSS of `pslocal batch` once it has answered every line of
/// `lines` while its stdin is still open, in kB. Answering before end
/// of input is part of the check: a batch that reads all of its input
/// first never answers within the timeout.
#[cfg(target_os = "linux")]
fn batch_peak_rss_kb(lines: &[String]) -> u64 {
    use std::io::{BufRead as _, BufReader};
    let mut child = Command::new(env!("CARGO_BIN_EXE_pslocal"))
        .arg("batch")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("binary spawns");
    let mut stdin = child.stdin.take().unwrap();
    let payload = lines.iter().map(|l| format!("{l}\n")).collect::<String>();
    // Hands stdin back, still open, once everything is written.
    let feeder = std::thread::spawn(move || {
        stdin.write_all(payload.as_bytes()).expect("stdin written");
        stdin
    });
    let (tx, rx) = std::sync::mpsc::channel();
    let stdout = child.stdout.take().unwrap();
    std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            if tx.send(line.expect("stdout readable")).is_err() {
                break;
            }
        }
    });
    for _ in lines {
        let line = rx
            .recv_timeout(Duration::from_secs(120))
            .expect("batch answers while its stdin is still open");
        assert!(line.contains("\"outcome\":\"deadline_exceeded\""), "{line}");
    }
    let status = std::fs::read_to_string(format!("/proc/{}/status", child.id())).unwrap();
    let peak = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status");
    drop(feeder.join().expect("feeder thread"));
    assert!(child.wait().expect("batch exits").success());
    peak
}

#[cfg(target_os = "linux")]
#[test]
fn cli_batch_memory_does_not_grow_with_its_input() {
    // Each line generates an n = 2048 instance of about 60 KB. A zero
    // deadline answers it without building `G_k`, so the test measures
    // what intake holds: a batch that parses all of its input before it
    // runs any grows by about 30 MB from 50 lines to 500.
    let lines: Vec<String> = (0..500)
        .map(|i| format!(r#"{{"id":"r{i}","n":2048,"m":1024,"k":4,"seed":{i},"deadline_ms":0}}"#))
        .collect();
    let short = batch_peak_rss_kb(&lines[..50]);
    let long = batch_peak_rss_kb(&lines);
    assert!(long < short + 4096, "peak RSS {short} kB for 50 lines, {long} kB for 500");
}

#[test]
fn cli_batch_gives_every_response_one_service_request_span() {
    // A request dead on arrival goes through the driver like any other,
    // so it is traced like any other.
    let dir = std::env::temp_dir().join(format!("pslocal-batch-spans-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let metrics = dir.join("metrics.jsonl");
    let out = run_cli(
        &["batch", "--workers", "1", "--metrics-out", metrics.to_str().unwrap()],
        concat!(
            r#"{"id":"doomed","n":64,"m":32,"k":4,"deadline_ms":0}"#,
            "\n",
            r#"{"id":"healthy","n":64,"m":32,"k":4}"#,
        ),
    );
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let lines = sorted_result_lines(&out);
    assert_eq!(lines.len(), 2);
    assert_eq!(lines[0], r#"{"id":"doomed","outcome":"deadline_exceeded","phase":0}"#);
    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written");
    let _ = std::fs::remove_dir_all(&dir);
    // One span per response, told apart by the request's sequence index.
    let mut indices: Vec<&str> = jsonl
        .lines()
        .filter(|l| l.contains(r#""event":"span_start""#))
        .filter(|l| l.contains(r#""name":"service-request""#))
        .filter_map(|l| l.split(r#""index":"#).nth(1)?.split(',').next())
        .collect();
    indices.sort();
    assert_eq!(indices, ["0", "1"], "metrics: {jsonl}");
    assert_eq!(jsonl.matches(r#""counter":"requests_deadline_exceeded""#).count(), 1);
    // Each request's `reduction` span opens under its own
    // `service-request` span, so the file holds one tree per request.
    let field = |line: &str, key: &str| {
        let value = line.split(&format!(r#""{key}":"#)).nth(1).unwrap_or("");
        value.split([',', '}']).next().unwrap_or("").trim_matches('"').to_string()
    };
    let starts: Vec<&str> =
        jsonl.lines().filter(|l| l.contains(r#""event":"span_start""#)).collect();
    let named = |name: &str, key: &str| -> Vec<String> {
        starts.iter().filter(|l| field(l, "name") == name).map(|l| field(l, key)).collect()
    };
    let requests = named("service-request", "id");
    let mut parents = named("reduction", "parent");
    assert_eq!(parents.len(), 2, "one reduction per request: {jsonl}");
    assert!(parents.iter().all(|p| requests.contains(p)), "reduction parents {parents:?}: {jsonl}");
    parents.dedup();
    assert_eq!(parents.len(), 2, "each request holds its own reduction: {jsonl}");
}

#[test]
fn cli_batch_answers_a_bad_line_and_exits_1_after_the_rest() {
    let batch = [
        r#"{"id":"a","n":64,"m":32,"k":3,"seed":1}"#,
        r#"{"id":"k0","n":10,"m":5,"k":0}"#,
        r#"{"id":"b","n":48,"m":20,"k":3,"seed":2}"#,
    ]
    .join("\n");
    let out = run_cli(&["batch"], &batch);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert!(stderr.contains("error: stdin line 2: palette size k must be positive"), "{stderr}");
    let lines = sorted_result_lines(&out);
    assert_eq!(lines.len(), 3, "one answer per line: {lines:?}");
    assert!(lines[0].starts_with(r#"{"id":"a","outcome":"ok""#), "{lines:?}");
    assert!(lines[1].starts_with(r#"{"id":"b","outcome":"ok""#), "{lines:?}");
    assert_eq!(lines[2], r#"{"outcome":"bad_request","error":"palette size k must be positive"}"#);
}

#[test]
fn cli_batch_answers_unbuildable_and_over_long_lines_with_bad_request() {
    // A shape that passes the planted-parameter check but whose
    // generation panics (capacity overflow), a line far over the bound,
    // and a line that is not valid UTF-8 (decoded lossily, it would run
    // as a request with the id "\u{fffd}\u{fffd}"): each gets one
    // bad_request, and the lines around it run.
    let over_long = format!(r#"{{"id":"{}","n":24,"m":10,"k":3}}"#, "x".repeat(1 << 20));
    let not_utf8 = b"{\"id\":\"\xff\xfe\",\"n\":10,\"m\":5,\"k\":2}";
    for bad in [br#"{"id":"x","n":18446744073709551615}"#, over_long.as_bytes(), not_utf8] {
        let batch = [
            br#"{"id":"a","n":64,"m":32,"k":3,"seed":1}"#.as_slice(),
            bad,
            br#"{"id":"b","n":48,"m":20,"k":3,"seed":2}"#,
        ]
        .join(&b'\n');
        let out = run_cli(&["batch"], &batch);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
        assert!(stderr.contains("error: stdin line 2: "), "{stderr}");
        let lines = sorted_result_lines(&out);
        assert_eq!(lines.len(), 3, "one answer per line: {lines:?}");
        assert!(lines[0].starts_with(r#"{"id":"a","outcome":"ok""#), "{lines:?}");
        assert!(lines[1].starts_with(r#"{"id":"b","outcome":"ok""#), "{lines:?}");
        assert!(lines[2].starts_with(r#"{"outcome":"bad_request""#), "{lines:?}");
    }
}

#[test]
fn cli_batch_rejects_malformed_lines_with_the_line_number() {
    let out = run_cli(&["batch"], "{\"id\":\"ok-line\"}\n{\"id\":42}\n");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 2"), "stderr: {stderr}");

    let missing_id = run_cli(&["batch"], "{\"n\":32}\n");
    assert!(!missing_id.status.success());
    assert!(String::from_utf8_lossy(&missing_id.stderr).contains("\"id\""));

    // Infeasible planted shapes (k = 0, n < k, too few off-color
    // vertices, an ε that is negative or not finite), an unknown key
    // and a duplicate key are malformed lines too: a clean exit 1, not
    // a panic and not a silent default.
    for shape in [
        r#"{"id":"k0","n":10,"m":5,"k":0}"#,
        r#"{"id":"nk","n":3,"m":5,"k":4}"#,
        r#"{"id":"inf","n":8,"m":5,"k":2,"epsilon":3}"#,
        r#"{"id":"e","n":10,"m":5,"k":2,"epsilon":-1}"#,
        r#"{"id":"e","n":10,"m":5,"k":2,"epsilon":NaN}"#,
        r#"{"id":"e","n":10,"m":5,"k":2,"epsilon":inf}"#,
        r#"{"id":"typo","n":40,"m":20,"k":3,"orcale":"luby"}"#,
        r#"{"id":"dup","n":40,"m":20,"k":3,"k":0}"#,
    ] {
        let out = run_cli(&["batch"], format!("{{\"id\":\"ok\"}}\n{shape}\n"));
        assert_eq!(out.status.code(), Some(1), "{shape}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 2"), "{shape}: {stderr}");
    }
}
