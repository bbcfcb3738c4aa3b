//! TCP-server equivalence and degradation suite: the socket front end
//! is an execution vehicle, never a semantic one. The same JSONL
//! requests through `pslocal batch` and through a live [`Server`]
//! socket must produce byte-identical result lines once sorted; the
//! cap/queue/deadline degradation paths must answer with their typed
//! lines; and a mid-load drain must deliver a response for every
//! admitted request before any socket closes.

use proptest::prelude::*;
use pslocal::core::{serve_lines, Admission, Server, ServerConfig, Service, ServiceConfig};
use pslocal::telemetry::{AggregateSink, Telemetry};
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Read as _, Write as _};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::process::{Child, Command, Output, Stdio};
use std::sync::atomic::AtomicBool;
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
        r#"{"id":"kernel-pinned","n":64,"m":32,"k":4,"seed":16,"kernel":"bitset"}"#,
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
/// the server wrote back before closing the connection. A connection
/// that stays open fails the read after a minute instead of hanging.
fn roundtrip(addr: SocketAddr, payload: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    conn.write_all(payload.as_bytes()).expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read responses before the timeout");
    out
}

/// A request line whose generation panics (capacity overflow) although
/// its shape passes the planted-parameter check.
const UNBUILDABLE: &str = r#"{"id":"x","n":18446744073709551615}"#;

/// A request line of about `bytes` bytes that would be valid if it were
/// not over the line bound.
fn over_long_line(bytes: usize) -> String {
    format!(r#"{{"id":"{}","n":24,"m":10,"k":3}}"#, "y".repeat(bytes))
}

/// Request lines the codec refuses: invalid UTF-8, a `\u` escape, a
/// negative number and a nested value.
const CODEC_CASES: [&[u8]; 4] = [
    b"{\"id\":\"\xff\xfe\",\"n\":24,\"m\":10,\"k\":3}",
    br#"{"id":"\u0041","n":24,"m":10,"k":3}"#,
    br#"{"id":"neg","n":-24,"m":10,"k":3}"#,
    br#"{"id":"nest","n":24,"m":{"k":3}}"#,
];

/// One seeded mix of lines through [`serve_lines`], against a
/// one-worker service with a queue of 1.
fn check_serve_lines(seed: u64, admission: Admission) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let over_long = over_long_line(70 * 1024);
    let lines = rng.gen_range(1..24usize);
    let quit_at = rng.gen_bool(0.3).then(|| rng.gen_range(0..lines));
    let (mut input, mut requests, mut pings, mut first_bad) = (Vec::new(), 0, 0, None);
    for i in 0..lines {
        if quit_at == Some(i) {
            input.extend_from_slice(b"QUIT\n");
        }
        let answered = quit_at.is_none_or(|q| i < q);
        let line_no = i as u64 + 1 + u64::from(quit_at.is_some_and(|q| q <= i));
        // `Some(bad)` for a request line, `None` for a skipped line or PING.
        let (line, bad): (Vec<u8>, _) = match rng.gen_range(0..10u32) {
            0..=2 => {
                (format!(r#"{{"id":"v{i}","n":24,"m":10,"k":3,"seed":{i}}}"#).into(), Some(false))
            }
            3 => (br#"{"id":"m","n":"#.into(), Some(true)),
            4 => (br#"{"id":"u","orcale":"luby"}"#.into(), Some(true)),
            5 => (br#"{"id":"z","k":0}"#.into(), Some(true)),
            6 => {
                (if rng.gen_bool(0.5) { b"  ".into() } else { format!("# note {i}").into() }, None)
            }
            7 => (b"PING".into(), None),
            8 => (CODEC_CASES[rng.gen_range(0..CODEC_CASES.len())].into(), Some(true)),
            _ if rng.gen_bool(0.5) => (over_long.clone().into(), Some(true)),
            _ => (UNBUILDABLE.into(), Some(true)),
        };
        input.extend_from_slice(&line);
        input.push(b'\n');
        if !answered {
            continue;
        }
        match bad {
            Some(bad) => {
                requests += 1;
                if bad && first_bad.is_none() {
                    first_bad = Some(line_no);
                }
            }
            None => pings += usize::from(line == b"PING"),
        }
    }
    let service =
        Service::start(ServiceConfig::new(1).with_queue_capacity(1), Telemetry::disabled());
    let mut output = Vec::new();
    let report = serve_lines(
        &service,
        input.as_slice(),
        &mut output,
        admission,
        None,
        &AtomicBool::new(false),
    );
    assert!(service.shutdown().drained.is_empty());
    assert!(report.write_error.is_none());
    let output = String::from_utf8(output).expect("UTF-8 output");
    let responses = output.lines().filter(|l| l.starts_with('{')).count();
    let pongs = output.lines().filter(|l| *l == "PONG").count();
    let input = String::from_utf8_lossy(&input);
    assert_eq!(responses + pongs, output.lines().count(), "{output}");
    assert_eq!(responses, requests, "one response line per request line:\n{input}");
    assert_eq!(pongs, pings, "one PONG per PING:\n{input}");
    assert_eq!(report.first_bad.map(|(line, _)| line), first_bad, "{input}");
}

/// One line of random fragments: JSON punctuation, `[`, `-` and
/// spaces; the request keys and unknown ones; strings with escapes,
/// `\u` included; digit runs of at most two digits; and bytes of 0x80
/// and above, alone or as whole characters. Most lines open like a
/// request. No digit run follows a digit, so every number a line can
/// carry is below 100 and every instance it can generate is small. The
/// line is never blank, so it is always a request line.
fn arbitrary_line(rng: &mut impl Rng) -> Vec<u8> {
    const PUNCTUATION: [&str; 8] = ["{", "}", ":", ",", "\"", "[", "-", " "];
    const KEYS: [&str; 13] = [
        "id",
        "n",
        "m",
        "k",
        "seed",
        "epsilon",
        "oracle",
        "kernel",
        "deadline_ms",
        "faults",
        "orcale",
        "",
        "ID",
    ];
    const PIECES: [&str; 12] = [
        "a",
        "greedy",
        "luby,exact",
        "bitset",
        "panic,ok",
        "stall:9",
        r#"\""#,
        r"\\",
        r"\n",
        r"\u0041",
        r"\u00e",
        r"\q",
    ];
    let mut line = Vec::new();
    if rng.gen_bool(0.75) {
        line.push(b'{');
    }
    for _ in 0..rng.gen_range(1..=16) {
        match rng.gen_range(0..10u32) {
            0..=2 => line.extend(PUNCTUATION[rng.gen_range(0..PUNCTUATION.len())].bytes()),
            3 | 4 => {
                line.extend(format!(r#""{}""#, KEYS[rng.gen_range(0..KEYS.len())]).bytes());
                if rng.gen_bool(0.5) {
                    line.push(b':');
                }
            }
            5 | 6 => {
                line.push(b'"');
                for _ in 0..rng.gen_range(0..3) {
                    line.extend(PIECES[rng.gen_range(0..PIECES.len())].bytes());
                }
                if rng.gen_bool(0.8) {
                    line.push(b'"');
                }
            }
            7 | 8 => {
                if line.last().is_some_and(u8::is_ascii_digit) {
                    line.push(b' ');
                }
                for _ in 0..rng.gen_range(1..=2) {
                    line.push(rng.gen_range(b'0'..=b'9'));
                }
            }
            _ if rng.gen_bool(0.5) => line.push(rng.gen_range(0x80..=0xFF)),
            _ => {
                let c = char::from_u32(rng.gen_range(0x80..0x11_0000)).unwrap_or('\u{FFFD}');
                line.extend(c.to_string().bytes());
            }
        }
    }
    if std::str::from_utf8(&line).is_ok_and(|text| text.trim().is_empty()) {
        line.push(b'{');
    }
    line
}

/// Seeded lines of random fragments through [`serve_lines`] with a 0 ms
/// default deadline, against a one-worker service with a queue of 1:
/// one JSON line answers each line, and none reports a panic.
fn check_arbitrary_lines(seed: u64, admission: Admission) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let lines: Vec<Vec<u8>> = (0..rng.gen_range(1..64)).map(|_| arbitrary_line(&mut rng)).collect();
    let input: Vec<u8> = lines.iter().flat_map(|l| l.iter().chain(b"\n")).copied().collect();
    let service =
        Service::start(ServiceConfig::new(1).with_queue_capacity(1), Telemetry::disabled());
    let mut output = Vec::new();
    let report = serve_lines(
        &service,
        input.as_slice(),
        &mut output,
        admission,
        Some(Duration::ZERO),
        &AtomicBool::new(false),
    );
    assert!(service.shutdown().drained.is_empty());
    assert!(report.write_error.is_none());
    let output = String::from_utf8(output).expect("UTF-8 output");
    let input = String::from_utf8_lossy(&input);
    assert_eq!(output.lines().count(), lines.len(), "one line per line:\n{input}\n{output}");
    for line in output.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "{line}\n{input}");
        assert!(!line.contains("panicked"), "{line}\n{input}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Seeded mixes of valid requests, malformed JSON, unknown keys,
    /// `k: 0`, the codec cases, blank and `#` lines, `PING`, over-long
    /// lines and a line whose generation panics, under both admissions.
    #[test]
    fn serve_lines_answers_every_request_line_once(seed in 0u64..1_000_000, wait in 0usize..2) {
        check_serve_lines(seed, [Admission::Shed, Admission::Wait][wait]);
    }

    /// Lines of random fragments, under both admissions.
    #[test]
    fn serve_lines_answers_arbitrary_lines_once(seed in 0u64..1_000_000, wait in 0usize..2) {
        check_arbitrary_lines(seed, [Admission::Shed, Admission::Wait][wait]);
    }
}

#[test]
fn unbuildable_and_over_long_lines_get_bad_request_and_the_connection_serves_on() {
    // The unbuildable line used to panic the connection's reader: no
    // answer for it or the next line, an open socket, and a panic at
    // `Server::shutdown`. The over-long line used to be buffered whole.
    let stats = AggregateSink::default();
    let server =
        Server::start("127.0.0.1:0", ServerConfig::default(), Telemetry::new(stats.clone()))
            .expect("starts");
    for bad in [UNBUILDABLE.to_string(), over_long_line(1 << 20)] {
        let payload = format!(
            "{}\n{bad}\n{}\n",
            r#"{"id":"a","n":64,"m":32,"k":3,"seed":1}"#,
            r#"{"id":"b","n":48,"m":20,"k":3,"seed":2}"#
        );
        let lines = sorted_lines(&roundtrip(server.local_addr(), &payload));
        assert_eq!(lines.len(), 3, "one answer per line: {lines:?}");
        assert!(lines[0].starts_with(r#"{"id":"a","outcome":"ok""#), "{lines:?}");
        assert!(lines[1].starts_with(r#"{"id":"b","outcome":"ok""#), "{lines:?}");
        assert!(lines[2].starts_with(r#"{"outcome":"bad_request""#), "{lines:?}");
    }
    server.shutdown();
    assert_eq!(stats.counter("bad_requests"), 2);
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

/// Peak resident set of process `pid`, in kB.
#[cfg(target_os = "linux")]
fn vm_hwm_kb(pid: u32) -> u64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).expect("status readable");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/<pid>/status")
}

/// A 64 MiB line is skipped, not stored: one `bad_request`, the next
/// request is answered, and the server's peak RSS barely moves.
#[cfg(target_os = "linux")]
#[test]
fn an_over_long_line_does_not_grow_the_server() {
    let (child, addr) = spawn_serve(&["--workers", "1"]);
    let before = vm_hwm_kb(child.id());
    let mut conn = TcpStream::connect(&addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(60))).expect("read timeout");
    let mebibyte = vec![b'x'; 1 << 20];
    for _ in 0..64 {
        conn.write_all(&mebibyte).expect("send");
    }
    conn.write_all(b"\n{\"id\":\"next\",\"n\":24,\"m\":10,\"k\":3}\n").expect("send");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut out = String::new();
    conn.read_to_string(&mut out).expect("read responses before the timeout");
    let after = vm_hwm_kb(child.id());

    let bye = run_cli(&["client", "--addr", &addr, "--shutdown"], "");
    assert!(bye.status.success());
    let exit = child.wait_with_output().expect("serve exits");
    assert!(exit.status.success(), "stderr: {}", String::from_utf8_lossy(&exit.stderr));
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 2, "{out}");
    assert!(lines[0].starts_with(r#"{"outcome":"bad_request","error":"request line longer"#));
    assert!(lines[1].starts_with(r#"{"id":"next","outcome":"ok""#), "{out}");
    assert!(after < before + 8192, "VmHWM {before} kB before the line, {after} kB after");
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
