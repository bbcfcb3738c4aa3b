//! TCP-server equivalence and degradation suite: the socket front end
//! is an execution vehicle, never a semantic one. The same JSONL
//! requests through `pslocal batch` and through a live [`Server`]
//! socket must produce byte-identical result lines once sorted; the
//! cap/queue/deadline degradation paths must answer with their typed
//! lines; and a mid-load drain must deliver a response for every
//! admitted request before any socket closes.

use pslocal::core::{Server, ServerConfig, ServiceConfig};
use pslocal::telemetry::{AggregateSink, Telemetry};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::time::Duration;

/// A mixed JSONL batch: dense and sparse instances, fault-injected
/// chains, a pinned kernel — the same shape `tests/batch_service.rs`
/// pins against the serial ground truth.
fn jsonl_batch() -> String {
    [
        r#"{"id":"dense-0","n":96,"m":48,"k":8,"seed":11}"#,
        r#"{"id":"faulty-panic","n":64,"m":32,"k":4,"seed":13,"faults":"panic"}"#,
        r#"{"id":"sparse-0","n":192,"m":96,"k":4,"seed":12}"#,
        r#"{"id":"faulty-mixed","n":80,"m":40,"k":4,"seed":14,"faults":"empty-set,invalid-set"}"#,
        r#"{"id":"chained","n":72,"m":36,"k":3,"seed":15,"oracle":"greedy,exact"}"#,
        r#"{"id":"kernel-pinned","n":64,"m":32,"k":4,"seed":16,"kernel":"bitset","oracle_cache":true}"#,
    ]
    .join("\n")
}

fn run_cli(args: &[&str], stdin: &str) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pslocal"));
    cmd.args(args).stdin(Stdio::piped()).stdout(Stdio::piped()).stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("binary spawns");
    child.stdin.as_mut().unwrap().write_all(stdin.as_bytes()).expect("stdin written");
    child.wait_with_output().expect("binary finishes")
}

fn sorted_lines(text: &str) -> Vec<String> {
    let mut lines: Vec<String> = text.lines().map(String::from).collect();
    lines.sort();
    lines
}

/// Sends `payload` to the server, half-closes, and returns everything
/// the server wrote back before closing the connection.
fn roundtrip(addr: SocketAddr, payload: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.write_all(payload.as_bytes()).expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read responses");
    out
}

#[test]
fn server_matches_the_batch_front_end_at_every_worker_count() {
    let batch = jsonl_batch();
    let baseline = run_cli(&["batch", "--workers", "1"], &batch);
    assert!(baseline.status.success(), "stderr: {}", String::from_utf8_lossy(&baseline.stderr));
    let expected = sorted_lines(&String::from_utf8_lossy(&baseline.stdout));
    assert_eq!(expected.len(), 6);
    assert!(expected.iter().all(|l| l.contains("\"outcome\":\"ok\"")), "lines: {expected:?}");

    for workers in [1, 2, 4] {
        let config = ServerConfig::default().with_service(ServiceConfig::new(workers));
        let server =
            Server::start("127.0.0.1:0", config, Telemetry::disabled()).expect("server starts");
        let got = sorted_lines(&roundtrip(server.local_addr(), &batch));
        assert_eq!(got, expected, "workers = {workers}");
        server.shutdown();
    }
}

#[test]
fn degradation_paths_answer_with_their_typed_lines() {
    // One worker behind a queue of 1: with three requests on the wire,
    // at least one must be shed as a typed `rejected` line (never
    // buffered past the bound), and every line still carries its id.
    let config = ServerConfig::default().with_service(ServiceConfig::new(1).with_queue_capacity(1));
    let server = Server::start("127.0.0.1:0", config, Telemetry::disabled()).expect("starts");
    let payload = [
        r#"{"id":"q-0","n":96,"m":48,"k":8,"seed":21}"#,
        r#"{"id":"q-1","n":96,"m":48,"k":8,"seed":22}"#,
        r#"{"id":"q-2","n":96,"m":48,"k":8,"seed":23}"#,
        "",
    ]
    .join("\n");
    let lines = sorted_lines(&roundtrip(server.local_addr(), &payload));
    assert_eq!(lines.len(), 3, "one answer per request: {lines:?}");
    for line in &lines {
        assert!(
            line.contains("\"outcome\":\"ok\"") || line.contains("\"outcome\":\"rejected\""),
            "unexpected line: {line}"
        );
    }

    // Deadline passthrough: an already-expired deadline answers
    // `deadline_exceeded` at phase 0, exactly as `pslocal batch` would.
    let expired = roundtrip(
        server.local_addr(),
        "{\"id\":\"doomed\",\"n\":64,\"m\":32,\"k\":4,\"deadline_ms\":0}\n",
    );
    assert_eq!(expired.trim(), r#"{"id":"doomed","outcome":"deadline_exceeded","phase":0}"#);

    // An unparseable line and an infeasible planted shape (k = 0) are
    // answered (typed), not dropped, and the connection keeps serving
    // afterwards.
    let garbled = roundtrip(
        server.local_addr(),
        "{\"id\":42}\n{\"id\":\"k0\",\"n\":10,\"m\":5,\"k\":0}\nPING\n",
    );
    let garbled = sorted_lines(&garbled);
    assert_eq!(garbled.len(), 3, "lines: {garbled:?}");
    assert_eq!(garbled[0], "PONG");
    assert!(garbled[1].contains("\"outcome\":\"bad_request\""), "lines: {garbled:?}");
    assert!(garbled[2].contains("\"outcome\":\"bad_request\""), "lines: {garbled:?}");

    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_a_typed_overloaded_line() {
    let config = ServerConfig::default().with_max_connections(1);
    let stats = AggregateSink::default();
    let server =
        Server::start("127.0.0.1:0", config, Telemetry::new(stats.clone())).expect("starts");

    // Hold the only slot open, proven registered by a PING round trip.
    let mut holder = TcpStream::connect(server.local_addr()).expect("connect");
    holder.write_all(b"PING\n").expect("send");
    let mut reader = BufReader::new(holder.try_clone().expect("clone"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert_eq!(line.trim(), "PONG");

    // The second connection is shed at accept time: one typed line,
    // then close — nothing needs to be sent to trigger it.
    let mut shed_conn = TcpStream::connect(server.local_addr()).expect("connect");
    let mut shed = String::new();
    shed_conn.read_to_string(&mut shed).expect("read the shed line");
    assert_eq!(shed.trim(), r#"{"outcome":"overloaded","error":"connection limit 1 reached"}"#);

    // STATS over the surviving connection sees both counters live.
    holder.write_all(b"STATS\n").expect("send");
    let mut snapshot = String::new();
    loop {
        let mut stats_line = String::new();
        reader.read_line(&mut stats_line).expect("read stats");
        if stats_line.trim() == "OK" {
            break;
        }
        snapshot.push_str(&stats_line);
    }
    assert!(snapshot.contains("counter connections_accepted 1"), "snapshot: {snapshot}");
    assert!(snapshot.contains("counter connections_refused 1"), "snapshot: {snapshot}");

    drop(reader);
    holder.shutdown(Shutdown::Both).expect("close holder");
    server.shutdown();
    assert_eq!(stats.counter("connections_refused"), 1);
}

#[test]
fn stats_blocks_never_interleave_with_in_flight_results() {
    // Regression: STATS used to write its multi-line snapshot from the
    // reader thread while worker callbacks pushed result lines through
    // the same socket, so a result line could land in the middle of a
    // block. All outbound lines now funnel through the connection's
    // single writer queue, with a whole snapshot as one message.
    let config = ServerConfig::default().with_service(ServiceConfig::new(4));
    let stats = AggregateSink::default();
    let server = Server::start("127.0.0.1:0", config, Telemetry::new(stats)).expect("starts");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");

    // Pipeline a STATS poll after every request without reading a byte
    // back, so snapshots render while results are genuinely in flight.
    const REQUESTS: usize = 24;
    for i in 0..REQUESTS {
        let line = format!("{{\"id\":\"mix-{i}\",\"n\":96,\"m\":48,\"k\":8,\"seed\":{i}}}\n");
        conn.write_all(line.as_bytes()).expect("send request");
        conn.write_all(b"STATS\n").expect("send stats");
    }
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read responses");

    // Every snapshot must arrive contiguous: from its `uptime_s` header
    // to its `OK` terminator with only stats item lines in between —
    // never a JSON result line.
    let mut in_block = false;
    let mut blocks = 0usize;
    let mut results = 0usize;
    for line in out.lines() {
        if in_block {
            assert!(!line.starts_with('{'), "result line inside a STATS block: {line}");
            if line == "OK" {
                in_block = false;
            }
        } else if line.starts_with("uptime_s ") {
            in_block = true;
            blocks += 1;
        } else {
            assert!(line.starts_with('{'), "unexpected line outside a STATS block: {line:?}");
            results += 1;
        }
    }
    assert!(!in_block, "unterminated STATS block:\n{out}");
    assert_eq!(blocks, REQUESTS, "one snapshot per poll");
    assert_eq!(results, REQUESTS, "one result line per request");
    for i in 0..REQUESTS {
        assert!(out.contains(&format!("\"id\":\"mix-{i}\"")), "missing result mix-{i}");
    }
    server.shutdown();
}

#[test]
fn mid_load_shutdown_drains_every_admitted_request() {
    let config = ServerConfig::default().with_service(ServiceConfig::new(1));
    let server = Server::start("127.0.0.1:0", config, Telemetry::disabled()).expect("starts");
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    for i in 0..4 {
        let line = format!("{{\"id\":\"load-{i}\",\"n\":96,\"m\":48,\"k\":8,\"seed\":{i}}}\n");
        conn.write_all(line.as_bytes()).expect("send");
    }
    // Leave the write side open — the drain, not an EOF, must end the
    // connection. Give the reader a moment to admit all four.
    std::thread::sleep(Duration::from_millis(200));

    let reader = std::thread::spawn(move || {
        let mut out = String::new();
        conn.read_to_string(&mut out).expect("read until the server closes");
        out
    });
    // Blocks until the acceptor, both connection threads, and the
    // worker pool are joined — i.e. until the drain fully completed.
    server.shutdown();

    let out = reader.join().expect("reader thread");
    let lines = sorted_lines(&out);
    assert_eq!(lines.len(), 4, "a drained server answers every admitted request: {lines:?}");
    for (i, line) in lines.iter().enumerate() {
        assert!(line.contains(&format!("\"id\":\"load-{i}\"")), "lines: {lines:?}");
        assert!(line.contains("\"outcome\":\"ok\""), "lines: {lines:?}");
    }
}

// ---------------------------------------------------------------------
// CLI level: `pslocal serve` + `pslocal client` end to end.
// ---------------------------------------------------------------------

/// Starts `pslocal serve` on an ephemeral port and returns the child
/// plus the resolved address parsed from its `listening on` line.
fn spawn_serve(extra: &[&str]) -> (Child, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pslocal"));
    cmd.args(["serve", "--addr", "127.0.0.1:0"])
        .args(extra)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let mut child = cmd.spawn().expect("serve spawns");
    let stdout = child.stdout.as_mut().expect("stdout piped");
    let mut line = String::new();
    BufReader::new(stdout).read_line(&mut line).expect("serve announces its address");
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected announcement: {line:?}"))
        .to_string();
    (child, addr)
}

/// Every closed connection must give back its handler and writer
/// threads: their stacks are memory mappings, so a leak shows as
/// `/proc/<pid>/maps` growing with each connection.
#[cfg(target_os = "linux")]
#[test]
fn finished_connections_release_their_threads() {
    let (child, addr) = spawn_serve(&["--workers", "1"]);
    let maps = format!("/proc/{}/maps", child.id());
    let mappings = || std::fs::read_to_string(&maps).expect("maps readable").lines().count();
    let socket: SocketAddr = addr.parse().expect("announced address parses");

    let before = mappings();
    for _ in 0..300 {
        assert_eq!(roundtrip(socket, "PING\n").trim(), "PONG");
    }
    let after = mappings();

    let bye = run_cli(&["client", "--addr", &addr, "--shutdown"], "");
    assert!(bye.status.success());
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(after < before + 100, "300 closed connections grew the maps from {before} to {after}");
}

#[test]
fn cli_serve_and_client_round_trip_with_graceful_shutdown() {
    let batch = jsonl_batch();
    let baseline = run_cli(&["batch", "--workers", "1"], &batch);
    assert!(baseline.status.success());
    let expected = sorted_lines(&String::from_utf8_lossy(&baseline.stdout));

    let (child, addr) = spawn_serve(&["--workers", "2"]);

    let ping = run_cli(&["client", "--addr", &addr, "--ping"], "");
    assert!(ping.status.success(), "stderr: {}", String::from_utf8_lossy(&ping.stderr));
    assert_eq!(String::from_utf8_lossy(&ping.stdout).trim(), "PONG");

    let served = run_cli(&["client", "--addr", &addr], &batch);
    assert!(served.status.success(), "stderr: {}", String::from_utf8_lossy(&served.stderr));
    assert_eq!(sorted_lines(&String::from_utf8_lossy(&served.stdout)), expected);

    let bye = run_cli(&["client", "--addr", &addr, "--shutdown"], "");
    assert!(bye.status.success());
    assert_eq!(String::from_utf8_lossy(&bye.stdout).trim(), "DRAINING");

    let out = child.wait_with_output().expect("serve exits after SHUTDOWN");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("drained"), "stderr: {stderr}");
}

#[test]
fn cli_serve_stats_command_reports_live_counters() {
    let (child, addr) = spawn_serve(&["--workers", "1"]);

    let one = run_cli(&["client", "--addr", &addr], "{\"id\":\"one\",\"n\":48,\"m\":24,\"k\":3}");
    assert!(one.status.success());
    assert!(String::from_utf8_lossy(&one.stdout).contains("\"outcome\":\"ok\""));

    let stats = run_cli(&["client", "--addr", &addr, "--stats"], "");
    assert!(stats.status.success());
    let text = String::from_utf8_lossy(&stats.stdout);
    assert!(text.contains("counter connections_accepted"), "stats: {text}");
    assert!(text.contains("counter requests_completed 1"), "stats: {text}");
    assert!(text.contains("span server-request"), "stats: {text}");
    assert!(text.trim_end().ends_with("OK"), "stats: {text}");

    let bye = run_cli(&["client", "--addr", &addr, "--shutdown"], "");
    assert!(bye.status.success());
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
