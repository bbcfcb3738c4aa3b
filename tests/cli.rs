//! End-to-end tests of the `pslocal` CLI binary: generate → stats →
//! reduce/maxis pipelines over the text formats.

use std::io::Write as _;
use std::process::{Command, Output, Stdio};

fn run(args: &[&str], stdin: Option<&str>) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_pslocal"));
    cmd.args(args).stdout(Stdio::piped()).stderr(Stdio::piped());
    if stdin.is_some() {
        cmd.stdin(Stdio::piped());
    } else {
        cmd.stdin(Stdio::null());
    }
    let mut child = cmd.spawn().expect("binary spawns");
    if let Some(text) = stdin {
        // The binary may exit (e.g. on a bad flag) before reading its
        // stdin; a broken pipe here is fine for those tests.
        let _ = child.stdin.as_mut().unwrap().write_all(text.as_bytes());
    }
    child.wait_with_output().expect("binary finishes")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn help_prints_usage_and_succeeds() {
    for args in [
        &["help"][..],
        &[],
        &["--help"],
        &["-h"],
        &["reduce", "--help"],
        &["reduce", "--k", "3", "--help"],
        &["serve", "--addr", "--help"],
    ] {
        let out = run(args, None);
        assert!(out.status.success(), "{args:?}: {}", String::from_utf8_lossy(&out.stderr));
        assert!(stdout(&out).contains("USAGE"), "{args:?}");
    }
}

#[test]
fn unknown_command_fails_with_message() {
    let out = run(&["frobnicate"], None);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));
}

#[test]
fn gen_planted_then_stats_then_reduce() {
    let gen = run(&["gen", "planted", "--n", "36", "--m", "15", "--k", "3", "--seed", "1"], None);
    assert!(gen.status.success());
    let instance = stdout(&gen);
    assert!(instance.contains("p hypergraph 36 15"));

    let stats = run(&["stats"], Some(&instance));
    assert!(stats.status.success());
    assert!(stdout(&stats).contains("hypergraph: n=36 m=15"));
    assert!(stdout(&stats).contains("almost-uniform(0.5): true"));

    let reduce = run(&["reduce", "--k", "3", "--oracle", "exact"], Some(&instance));
    assert!(reduce.status.success(), "stderr: {}", String::from_utf8_lossy(&reduce.stderr));
    let text = stdout(&reduce);
    assert!(text.contains("oracle = exact"));
    assert!(text.contains("phases = 1"));
    // One `v` line per vertex.
    assert_eq!(text.lines().filter(|l| l.starts_with("v ")).count(), 36);
}

#[test]
fn gen_gnp_then_maxis_with_each_oracle() {
    let gen = run(&["gen", "gnp", "--n", "24", "--p", "0.15", "--seed", "2"], None);
    assert!(gen.status.success());
    let graph = stdout(&gen);
    assert!(graph.contains("p graph 24"));
    for oracle in ["exact", "greedy", "luby", "clique-removal", "decomposition"] {
        let out = run(&["maxis", "--oracle", oracle], Some(&graph));
        assert!(out.status.success(), "oracle {oracle}");
        let text = stdout(&out);
        assert!(text.contains("oracle = "), "oracle {oracle}");
        assert!(text.lines().any(|l| l.starts_with("i ")), "oracle {oracle} found nothing");
    }
}

#[test]
fn reduce_requires_k_and_valid_oracle() {
    let gen = run(&["gen", "planted", "--n", "24", "--m", "8", "--k", "2"], None);
    let instance = stdout(&gen);
    let missing_k = run(&["reduce"], Some(&instance));
    assert!(!missing_k.status.success());
    assert!(String::from_utf8_lossy(&missing_k.stderr).contains("--k"));
    let bad_oracle = run(&["reduce", "--k", "2", "--oracle", "psychic"], Some(&instance));
    assert!(!bad_oracle.status.success());
    assert!(String::from_utf8_lossy(&bad_oracle.stderr).contains("unknown oracle"));
}

#[test]
fn bad_arguments_exit_with_an_error_line_not_a_panic() {
    // Each case is a shape a generator or the reduction asserts on, or
    // a misspelled option. The reduce cases get a valid instance, so
    // only the named argument is wrong.
    let instance = "p hypergraph 3 1\nh 0 1 2\n";
    for (args, message) in [
        (&["gen", "planted", "--n", "10", "--m", "5", "--k", "0"][..], "k must be positive"),
        (&["gen", "planted", "--n", "3", "--m", "5", "--k", "4"], "need at least k = 4"),
        (
            &["gen", "planted", "--n", "8", "--m", "5", "--k", "2", "--epsilon", "3"],
            "infeasible planted instance",
        ),
        (
            &["gen", "planted", "--n", "10", "--m", "5", "--k", "2", "--epsilon", "-1"],
            "epsilon must be finite and non-negative, got -1",
        ),
        (
            &["gen", "planted", "--n", "10", "--m", "5", "--k", "2", "--epsilon", "nan"],
            "epsilon must be finite and non-negative, got NaN",
        ),
        (
            &["gen", "planted", "--n", "10", "--m", "5", "--k", "2", "--epsilon", "inf"],
            "epsilon must be finite and non-negative, got inf",
        ),
        (&["trace-report", "--n", "3", "--m", "5", "--k", "4"], "need at least k = 4"),
        (&["trace-report", "--k", "0"], "k must be positive"),
        (&["reduce", "--k", "0"], "--k must be at least 1"),
        (&["gen", "gnp", "--n", "5", "--p", "2"], "--p must lie in [0, 1]"),
        (&["reduce", "--k", "3", "--orcale", "luby"], "unknown option --orcale for 'reduce'"),
        (&["maxis", "--threads", "2"], "unknown option --threads for 'maxis'"),
        (&["reduce", "--k", "3", "--threads", "2"], "unknown option --threads for 'reduce'"),
        (&["reduce", "--k", "3", "--oracle-cache"], "unknown option --oracle-cache for 'reduce'"),
        // An unknown option is named as such wherever it sits: it
        // neither asks for a value nor swallows the next argument.
        (&["reduce", "--k", "3", "--orcale"], "unknown option --orcale for 'reduce'"),
        (&["reduce", "--reusme", "--k", "3"], "unknown option --reusme for 'reduce'"),
        (&["reduce", "--k"], "option --k needs a value"),
        // Stray positionals, such as a single-dash typo, name the first
        // one instead of running with a default.
        (
            &["reduce", "--k", "3", "-oracle", "luby"],
            "unexpected argument \"-oracle\" for 'reduce'",
        ),
        (
            &["gen", "planted", "extra", "--n", "10", "--m", "5", "--k", "2"],
            "unexpected argument \"extra\" for 'gen'",
        ),
        (&["stats", "junk"], "unexpected argument \"junk\" for 'stats'"),
        (&["maxis", "extra", "junk"], "unexpected argument \"extra\" for 'maxis'"),
        (&["help", "reduce"], "unexpected argument \"reduce\" for 'help'"),
    ] {
        let out = run(args, Some(instance));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ") && l.contains(message)),
            "{args:?}: want an error line with {message:?}, got {stderr}"
        );
    }
}

#[test]
fn an_oversized_conflict_graph_is_an_error_line_not_a_panic() {
    // One hyperedge of 4096 vertices at k = 1024: over 10^13 row
    // entries, past the u32 CSR offsets, and 4,194,304 nodes, past the
    // bit-row bound. Both are refused before anything that size is
    // allocated, and the reduction reports why.
    let members: Vec<String> = (0..4096).map(|v| v.to_string()).collect();
    let one_edge = format!("p hypergraph 4096 1\nh {}\n", members.join(" "));
    let csr = "row entries overflow the u32 CSR offsets";
    for (args, stdin, reason) in [
        (&["reduce", "--k", "1024"][..], Some(one_edge.as_str()), csr),
        (
            &["reduce", "--k", "1024", "--kernel", "bitset"],
            Some(one_edge.as_str()),
            "4194304 nodes exceed the 32768-node bound of the bit rows",
        ),
        (&["trace-report", "--n", "4096", "--m", "1", "--k", "1024"], None, csr),
    ] {
        let out = run(args, stdin);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr
                .lines()
                .any(|l| l.starts_with("error: reduction failed: conflict graph too large: ")
                    && l.contains(reason)),
            "{args:?}: want the refusal naming {reason:?}, got {stderr}"
        );
    }
}

#[test]
fn writing_into_a_closed_pipe_is_an_error_line_not_a_panic() {
    // `reduce ... | head -1` closes the pipe after one line. Here the
    // read end is closed before the child has its input, so its first
    // write to stdout fails. The `gen` output is larger than a pipe
    // buffer, as in `pslocal gen planted ... | head -1`.
    let hypergraph = "p hypergraph 3 1\nh 0 1 2\n";
    let graph = "p graph 3 2\ne 0 1\ne 1 2\n";
    let request = "{\"id\":\"a\",\"n\":24,\"m\":10,\"k\":3}\n";
    let gen = ["gen", "planted", "--n", "40000", "--m", "20000", "--k", "4"];
    for (args, input) in [
        (&["reduce", "--k", "3"][..], hypergraph),
        (&["maxis"], graph),
        (&["stats"], graph),
        (&["batch"], request),
        (&gen, ""),
    ] {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pslocal"))
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("binary spawns");
        drop(child.stdout.take());
        child.stdin.take().unwrap().write_all(input.as_bytes()).expect("stdin written");
        let out = child.wait_with_output().expect("binary finishes");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: ") && l.contains("cannot write stdout")),
            "{args:?}: {stderr}"
        );
    }
}

#[cfg(target_os = "linux")]
#[test]
fn a_metrics_file_that_cannot_be_written_is_an_error_line() {
    // Every write to /dev/full fails. The metrics sink records on
    // regardless, and the command reports the failure once its work is
    // done: `batch` still answers its request.
    let hypergraph = "p hypergraph 3 1\nh 0 1 2\n";
    let graph = "p graph 3 2\ne 0 1\ne 1 2\n";
    let request = "{\"id\":\"a\",\"n\":24,\"m\":10,\"k\":3}\n";
    let full = ["--metrics-out", "/dev/full"];
    for (command, input) in [
        (&["reduce", "--k", "3"][..], Some(hypergraph)),
        (&["maxis"], Some(graph)),
        (&["batch"], Some(request)),
        (&["trace-report", "--n", "24", "--m", "10", "--k", "3"], None),
    ] {
        let args = [command, &full[..]].concat();
        let out = run(&args, input);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
        assert!(
            stderr.lines().any(|l| l.starts_with("error: cannot write /dev/full: ")),
            "{args:?}: {stderr}"
        );
        if command[0] == "batch" {
            assert!(stdout(&out).starts_with(r#"{"id":"a","outcome":"ok""#));
        }
    }
}

#[test]
fn trace_report_renders_timeline_and_span_tree() {
    let out = run(&["trace-report", "--n", "128", "--seed", "7"], None);
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    let text = stdout(&out);
    assert!(text.contains("trace-report: planted n=128 m=64 k=4"));
    assert!(text.contains("reduction: lambda = "));
    // The per-phase timeline table…
    assert!(text.contains("phase"));
    assert!(text.contains("restrict"));
    assert!(text.contains("total"));
    // …and the flamegraph-style tree with its span names.
    assert!(text.contains("reduction "));
    assert!(text.contains("conflict-graph"));
    assert!(text.contains("oracle"));
    assert!(text.contains("commit"));
}

#[test]
fn reduce_with_trace_and_metrics_out_emits_both() {
    let dir = std::env::temp_dir().join(format!("pslocal-cli-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let metrics_path = metrics.to_str().unwrap();

    let gen = run(&["gen", "planted", "--n", "36", "--m", "15", "--k", "3", "--seed", "1"], None);
    let instance = stdout(&gen);
    let reduce =
        run(&["reduce", "--k", "3", "--trace", "--metrics-out", metrics_path], Some(&instance));
    assert!(reduce.status.success(), "stderr: {}", String::from_utf8_lossy(&reduce.stderr));
    let text = stdout(&reduce);
    // Span tree precedes the normal reduce output, which is intact.
    assert!(text.contains("reduction "));
    assert!(text.contains("phase 0"));
    assert_eq!(text.lines().filter(|l| l.starts_with("v ")).count(), 36);

    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written");
    assert!(!jsonl.is_empty());
    for line in jsonl.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
    }
    assert!(jsonl.contains("\"event\":\"span_start\""));
    assert!(jsonl.contains("\"name\":\"reduction\""));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn maxis_with_trace_and_metrics_out_emits_one_root_oracle_span() {
    let dir = std::env::temp_dir().join(format!("pslocal-cli-maxis-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.jsonl");
    let metrics_path = metrics.to_str().unwrap();

    let gen = run(&["gen", "gnp", "--n", "60", "--p", "0.1", "--seed", "3"], None);
    let graph = stdout(&gen);
    let maxis = run(&["maxis", "--trace", "--metrics-out", metrics_path], Some(&graph));
    assert!(maxis.status.success(), "stderr: {}", String::from_utf8_lossy(&maxis.stderr));
    let text = stdout(&maxis);
    let size = text.lines().filter(|l| l.starts_with("i ")).count();
    assert!(size > 0);
    let root = text.lines().next().expect("span tree first");
    assert!(root.starts_with("oracle ") && root.contains("oracle_calls=1"), "{text}");
    assert!(root.contains(&format!("independent_set_size:{size}")), "{text}");

    // The whole file: one root `oracle` span holding one call and one
    // set-size sample, then its end.
    let jsonl = std::fs::read_to_string(&metrics).expect("metrics file written");
    let events: Vec<&str> = jsonl.lines().collect();
    assert_eq!(events.len(), 4, "{jsonl}");
    assert!(
        events[0].starts_with(r#"{"event":"span_start","id":1,"parent":null,"name":"oracle","#),
        "{jsonl}"
    );
    assert_eq!(events[1], r#"{"event":"counter","counter":"oracle_calls","delta":1,"span":1}"#);
    assert_eq!(
        events[2],
        format!(
            r#"{{"event":"sample","histogram":"independent_set_size","value":{size},"span":1}}"#
        )
    );
    assert!(events[3].starts_with(r#"{"event":"span_end","id":1,"#), "{jsonl}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stats_rejects_garbage() {
    let out = run(&["stats"], Some("not a graph at all"));
    assert!(!out.status.success());
}

#[test]
fn generation_is_seed_deterministic_across_invocations() {
    let a = run(&["gen", "gnp", "--n", "20", "--p", "0.2", "--seed", "9"], None);
    let b = run(&["gen", "gnp", "--n", "20", "--p", "0.2", "--seed", "9"], None);
    let c = run(&["gen", "gnp", "--n", "20", "--p", "0.2", "--seed", "10"], None);
    assert_eq!(stdout(&a), stdout(&b));
    assert_ne!(stdout(&a), stdout(&c));
}

/// A planted instance on which `luby` takes ≥ 2 reduction phases, so a
/// phase-1 kill point is actually reachable.
fn multi_phase_instance() -> String {
    let gen = run(&["gen", "planted", "--n", "80", "--m", "60", "--k", "3", "--seed", "9"], None);
    assert!(gen.status.success());
    stdout(&gen)
}

#[test]
fn killed_process_resumes_byte_identically() {
    // The real subprocess-kill test: `--crash-at` aborts the whole
    // process (SIGABRT, no unwinding, no destructors) at a journal
    // boundary; the rerun with `--resume` must replay the journal and
    // produce stdout byte-identical to an uninterrupted run.
    let dir = std::env::temp_dir().join(format!("pslocal-cli-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = dir.to_str().unwrap();
    let instance = multi_phase_instance();
    let reduce_args = ["reduce", "--k", "3", "--oracle", "luby", "--seed", "5"];

    let base = run(&reduce_args, Some(&instance));
    assert!(base.status.success());
    assert!(stdout(&base).lines().filter(|l| l.starts_with("c phase")).count() >= 2);

    let mut crash_args = reduce_args.to_vec();
    crash_args.extend(["--checkpoint-dir", ckpt, "--crash-at", "1:before-journal"]);
    let crashed = run(&crash_args, Some(&instance));
    assert!(!crashed.status.success(), "the injected abort must kill the process");

    let inspect = run(&["checkpoint-inspect", "--checkpoint-dir", ckpt], None);
    assert!(inspect.status.success(), "stderr: {}", String::from_utf8_lossy(&inspect.stderr));
    let text = stdout(&inspect);
    assert!(text.contains("driver = trusting"));
    assert!(text.contains("phase 0:"), "phase 0 must have been journaled before the kill");
    assert!(!text.contains("phase 1:"), "the kill fired before phase 1's append");

    let mut resume_args = reduce_args.to_vec();
    resume_args.extend(["--checkpoint-dir", ckpt, "--resume"]);
    let resumed = run(&resume_args, Some(&instance));
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(stdout(&resumed), stdout(&base), "resumed stdout must be byte-identical");
    // The recovery summary goes to stderr, keeping stdout diffable.
    assert!(String::from_utf8_lossy(&resumed.stderr).contains("resumed: 1 phase(s) recovered"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_journal_still_resumes_to_the_same_output() {
    let dir = std::env::temp_dir().join(format!("pslocal-cli-corrupt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let ckpt = dir.to_str().unwrap();
    let instance = multi_phase_instance();
    let reduce_args = ["reduce", "--k", "3", "--oracle", "luby", "--seed", "5"];

    let mut ckpt_args = reduce_args.to_vec();
    ckpt_args.extend(["--checkpoint-dir", ckpt]);
    let base = run(&ckpt_args, Some(&instance));
    assert!(base.status.success(), "stderr: {}", String::from_utf8_lossy(&base.stderr));

    // Flip one byte in the journal's final record.
    let journal = dir.join("journal.psj");
    let mut bytes = std::fs::read(&journal).expect("journal written");
    let last = bytes.len() - 10;
    bytes[last] ^= 0xFF;
    std::fs::write(&journal, &bytes).unwrap();

    let mut resume_args = reduce_args.to_vec();
    resume_args.extend(["--checkpoint-dir", ckpt, "--resume"]);
    let resumed = run(&resume_args, Some(&instance));
    assert!(resumed.status.success(), "stderr: {}", String::from_utf8_lossy(&resumed.stderr));
    assert_eq!(stdout(&resumed), stdout(&base), "corruption must not change the output");
    assert!(
        String::from_utf8_lossy(&resumed.stderr).contains("discarded"),
        "the recovery summary must mention the discarded record"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn bad_checkpoint_dir_fails_cleanly() {
    let dir = std::env::temp_dir().join(format!("pslocal-cli-badckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    // A checkpoint path *under a regular file* cannot be created.
    let blocker = dir.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let bad = blocker.join("sub");
    let instance = multi_phase_instance();
    let out =
        run(&["reduce", "--k", "3", "--checkpoint-dir", bad.to_str().unwrap()], Some(&instance));
    assert!(!out.status.success(), "bad checkpoint dir must be a clean nonzero exit");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("checkpointing failed"), "stderr: {err}");

    // `--resume` / `--crash-at` without `--checkpoint-dir` are refused.
    let orphan = run(&["reduce", "--k", "3", "--resume"], Some(&instance));
    assert!(!orphan.status.success());
    assert!(String::from_utf8_lossy(&orphan.stderr).contains("requires --checkpoint-dir"));
    let bad_spec = run(
        &["reduce", "--k", "3", "--checkpoint-dir", dir.to_str().unwrap(), "--crash-at", "zap"],
        Some(&instance),
    );
    assert!(!bad_spec.status.success());
    assert!(String::from_utf8_lossy(&bad_spec.stderr).contains("cannot parse --crash-at"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_inspect_requires_a_journal() {
    let dir = std::env::temp_dir().join(format!("pslocal-cli-noinspect-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run(&["checkpoint-inspect", "--checkpoint-dir", dir.to_str().unwrap()], None);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("no journal"));
    let missing = run(&["checkpoint-inspect"], None);
    assert!(!missing.status.success());
    assert!(String::from_utf8_lossy(&missing.stderr).contains("--checkpoint-dir"));
}
