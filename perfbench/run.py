#!/usr/bin/env python3
"""The pslocal benchmark of record.

Run from the repository root:

    python3 perfbench/run.py --workload serve-mixed --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 35
    python3 perfbench/run.py --smoke

It builds the release `pslocal` binary and the in-process helper
(`perfbench/tool`), generates the workload's inputs from `--seed`, and
then, for `--seconds` (default: BENCHMARK.json's `run_seconds`), either

* `--trace 0`: drives the real binary closed-loop with tracing off and
  reports the end-to-end metrics of BENCHMARK.json, checking every
  output; or
* `--trace 1`: runs the helper's layer walk, which calls each layer's
  public functions in the order the drivers do, times each call, and
  reports the per-layer metrics.

Human-readable lines go to stdout first; the last stdout line is one
JSON object with the keys `correct`, `attempted`, `failed`, `metrics`.
A full record (STATS counters, host context, sample counts) is written
to `.bench_work/results/`. The command exits nonzero when any output is
wrong. See perfbench/README.md for the workloads and the metric map.
"""

import argparse
import json
import os
import selectors
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

WORKLOADS = ("serve-mixed", "serve-dense", "reduce-checkpointed")
ROOT = Path.cwd()
WORK = ROOT / ".bench_work"
TOOL_MANIFEST = Path(__file__).resolve().parent / "tool" / "Cargo.toml"
# Untimed closed-loop time before each measured window: caches, the
# allocator and the worker pool settle first.
WARMUP_S = 1.0
# Set-up runs per benchmark run; setup_s is their median.
SETUP_RUNS = 21
# Hard limit on any single child process.
CHILD_TIMEOUT_S = 60


def log(message):
    print(message, file=sys.stderr, flush=True)


def target_dir():
    return (ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()


def build():
    """Builds `pslocal` and the helper; returns their paths."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    for manifest in (ROOT / "Cargo.toml", TOOL_MANIFEST):
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)]
        if manifest.parent == ROOT:
            cmd += ["--bin", "pslocal"]
        if subprocess.run(cmd, env=env, stdout=subprocess.DEVNULL).returncode != 0:
            raise SystemExit(f"build failed: {' '.join(cmd)}")
    release = target_dir() / "release"
    return release / "pslocal", release / "perfbench-tool"


def tool(binary, *args):
    """Runs one helper subcommand and returns its stdout line."""
    done = subprocess.run([str(binary), *map(str, args)], stdout=subprocess.PIPE, timeout=170)
    if done.returncode != 0:
        raise SystemExit(f"perfbench-tool {args[0]} failed with exit code {done.returncode}")
    return done.stdout.decode().strip()


def child_cpu_s():
    """CPU seconds of every reaped child so far: cutime + cstime of this
    process, from /proc/self/stat."""
    fields = Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()
    # Fields 16 and 17 of stat(5); `fields` starts at field 3.
    return (int(fields[13]) + int(fields[14])) / os.sysconf("SC_CLK_TCK")


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


@contextmanager
def deadline(what):
    """Fails the benchmark when the block, which waits on a child, takes
    longer than CHILD_TIMEOUT_S."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        yield
    except ChildTimeout:
        raise SystemExit(f"{what} took longer than {CHILD_TIMEOUT_S} s") from None
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def percentile(sorted_values, p):
    """Nearest-rank percentile."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def fresh(path):
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def commit_id():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, timeout=10)
    except OSError:
        return "unknown"
    return done.stdout.decode().strip() if done.returncode == 0 else "unknown (not a git checkout)"


# ---------------------------------------------------------------- serve


class Server:
    """One `pslocal serve` child with its stderr discarded (injected
    oracle panics print backtraces there)."""

    def __init__(self, binary):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [str(binary), "serve", "--addr", "127.0.0.1:0", "--workers", "2"],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            cwd=WORK,
        )
        try:
            with deadline("starting pslocal serve"):
                line = self.proc.stdout.readline().decode()
        except BaseException:
            self.stop()
            raise
        if not line.startswith("listening on "):
            self.stop()
            raise SystemExit(f"pslocal serve did not start: {line!r}")
        host, port = line.split()[-1].rsplit(":", 1)
        self.addr = (host, int(port))

    def connect(self):
        sock = socket.create_connection(self.addr, timeout=CHILD_TIMEOUT_S)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock

    def peak_rss_mb(self):
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise SystemExit("no VmHWM for pslocal serve")

    def shutdown(self, sock):
        sock.sendall(b"SHUTDOWN\n")
        reply = read_line(sock, bytearray())
        sock.close()
        if reply != b"DRAINING":
            self.stop()
            raise SystemExit(f"SHUTDOWN answered {reply!r}")
        if self.proc.wait(timeout=CHILD_TIMEOUT_S) != 0:
            raise SystemExit(f"pslocal serve exited with {self.proc.returncode}")
        self.proc.stdout.close()

    def stop(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def read_line(sock, buf):
    """Reads one line (without the newline) from `sock`, keeping any
    bytes past it in `buf`."""
    while b"\n" not in buf:
        chunk = sock.recv(65536)
        if not chunk:
            raise SystemExit("pslocal serve closed the connection")
        buf += chunk
    line, _, rest = bytes(buf).partition(b"\n")
    buf[:] = rest
    return line


def serve_setup_s(binary):
    """Median time from spawning `pslocal serve` until it answers PING.

    The client connects a few milliseconds after the server prints its
    address. The acceptor polls its listener every 25 ms, so a connect
    within microseconds of the print races the acceptor's first poll,
    and the figure lands at 2 or at 27 ms by chance. After the pause it
    is always the latter: start-up plus one poll interval."""
    times = []
    for _ in range(SETUP_RUNS):
        server = Server(binary)
        try:
            time.sleep(0.005)
            sock = server.connect()
            sock.sendall(b"PING\n")
            if read_line(sock, bytearray()) != b"PONG":
                raise SystemExit("PING did not answer PONG")
            times.append(time.perf_counter() - server.started)
            sock.close()
        finally:
            server.stop()
    return statistics.median(times), times


def stats_counters(sock):
    """Sends STATS and returns its counters."""
    sock.sendall(b"STATS\n")
    counters, buf = {}, bytearray()
    while True:
        line = read_line(sock, buf).decode()
        if line == "OK":
            return counters
        parts = line.split()
        if len(parts) == 3 and parts[0] == "counter":
            counters[parts[1]] = int(parts[2])


def closed_loop(server, lines, expected, clients, seconds):
    """Each client keeps one request in flight: it sends the next line
    only after reading the previous response. Returns per-request
    records (sent, done, ok) and the window."""
    conns = [server.connect() for _ in range(clients)]
    sel = selectors.DefaultSelector()
    records, cursor = [], 0
    start = time.perf_counter()
    window = (start + WARMUP_S, start + WARMUP_S + seconds)

    def send(sock, state):
        nonlocal cursor
        i = cursor % len(lines)
        cursor += 1
        state["pending"] = (i, time.perf_counter())
        sock.sendall(lines[i])

    for sock in conns:
        state = {"buf": bytearray(), "pending": None}
        sel.register(sock, selectors.EVENT_READ, state)
        send(sock, state)
    in_flight = clients
    while in_flight:
        events = sel.select(timeout=CHILD_TIMEOUT_S)
        if not events:
            raise SystemExit(f"pslocal serve did not answer within {CHILD_TIMEOUT_S} s")
        for key, _ in events:
            sock, state = key.fileobj, key.data
            chunk = sock.recv(65536)
            if not chunk:
                raise SystemExit("pslocal serve closed a connection mid-run")
            state["buf"] += chunk
            while b"\n" in state["buf"]:
                line, _, rest = bytes(state["buf"]).partition(b"\n")
                state["buf"][:] = rest
                done = time.perf_counter()
                i, sent = state["pending"]
                records.append((sent, done, line == expected[i]))
                if done < window[1]:
                    send(sock, state)
                else:
                    in_flight -= 1
    sel.close()
    return records, window, conns


def run_serve(seconds, pslocal, inputs, clients):
    lines = [l.encode() + b"\n" for l in (inputs / "requests.jsonl").read_text().splitlines()]
    expected = [l.encode() for l in (inputs / "expected.jsonl").read_text().splitlines()]
    setup_s, setup_samples = serve_setup_s(pslocal)

    cpu_before = child_cpu_s()
    server = Server(pslocal)
    try:
        records, window, conns = closed_loop(server, lines, expected, clients, seconds)
        counters = stats_counters(conns[0])
        rss = server.peak_rss_mb()
        for sock in conns[1:]:
            sock.close()
        server.shutdown(conns[0])
    finally:
        server.stop()
    cpu_s = child_cpu_s() - cpu_before

    measured = [r for r in records if window[0] <= r[0] < window[1]]
    latencies = sorted((done - sent) * 1e3 for sent, done, ok in measured)
    completed_ok = sum(1 for sent, done, ok in records if ok and window[0] <= done < window[1])
    failed = sum(1 for r in records if not r[2])
    metrics = {
        "throughput_rps": completed_ok / seconds,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "cpu_ms_per_req": cpu_s * 1e3 / len(records),
        "peak_rss_mb": rss,
        "setup_s": setup_s,
    }
    detail = {
        "closed_loop": f"{clients} connection(s), one request in flight each",
        "latency_samples": len(latencies),
        "requests_total": len(records),
        "error_rate": failed / len(records),
        "setup_samples_s": setup_samples,
        # Counts the program makes itself, from STATS at the end of the run.
        "stats": {
            name: value
            for name, value in counters.items()
            if name in ("oracle_calls", "phases", "csr_bytes", "requests_rejected",
                        "requests_completed", "requests_admitted")
            or name.startswith("oracle_cache")
        },
    }
    return len(records), failed, metrics, detail


# --------------------------------------------------------------- reduce


def reduce_once(pslocal, instance, job, ckpt):
    """One `pslocal reduce --checkpoint-dir` process, spawn to exit.
    Returns (seconds, exit code, stdout, peak RSS in MB, CPU seconds)."""
    shutil.rmtree(ckpt, ignore_errors=True)
    cmd = [str(pslocal), "reduce", "--k", str(job["k"]), "--oracle", job["oracle"],
           "--seed", str(job["seed"]), "--checkpoint-dir", str(ckpt)]
    with open(instance, "rb") as stdin:
        started = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        try:
            with deadline("pslocal reduce"):
                out = proc.stdout.read()
                _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        elapsed = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    return elapsed, proc.returncode, out, usage.ru_maxrss / 1024, usage.ru_utime + usage.ru_stime


ONE_EDGE_JOB = {"k": 4, "oracle": "luby", "seed": 1}


def run_reduce(seconds, pslocal, tool_bin, inputs, jobs):
    ckpt = WORK / "checkpoint"
    outputs = fresh(WORK / "reduce-out")
    first = {}
    runs = []  # (job, start, elapsed, ok, rss)
    setup_samples, setup_cpu = [], 0.0

    def set_up():
        nonlocal setup_cpu
        elapsed, code, _, _, cpu = reduce_once(pslocal, inputs / "one-edge.hg", ONE_EDGE_JOB, ckpt)
        if code != 0:
            raise SystemExit(f"pslocal reduce on the one-edge instance exited with {code}")
        setup_samples.append(elapsed)
        setup_cpu += cpu

    cpu_before = child_cpu_s()
    start = time.perf_counter()
    window = (start + WARMUP_S, start + WARMUP_S + seconds)
    # The set-up samples are spread over the run, so their median
    # stands for the whole run rather than one moment of the host.
    setup_every = (WARMUP_S + seconds) / SETUP_RUNS
    i = 0
    while time.perf_counter() < window[1]:
        if time.perf_counter() >= start + len(setup_samples) * setup_every:
            set_up()
            continue
        j = i % len(jobs)
        i += 1
        began = time.perf_counter()
        elapsed, code, out, rss, _ = reduce_once(pslocal, inputs / jobs[j]["file"], jobs[j], ckpt)
        if j not in first and code == 0:
            first[j] = out
            (outputs / f"out-{j}.txt").write_bytes(out)
        runs.append((j, began, elapsed, code == 0 and out == first.get(j), rss))
    while len(setup_samples) < SETUP_RUNS:
        set_up()
    cpu_s = child_cpu_s() - cpu_before - setup_cpu
    shutil.rmtree(ckpt, ignore_errors=True)

    # Each job's first stdout is parsed back into a multicoloring and
    # checked; every later run of the job must match it byte for byte.
    checked = json.loads(tool(tool_bin, "check-reduce", "--dir", inputs, "--outputs", outputs))
    bad_jobs = set(checked["failed"])
    runs = [(j, b, e, ok and j not in bad_jobs, rss) for j, b, e, ok, rss in runs]

    measured = [r for r in runs if window[0] <= r[1] < window[1]]
    latencies = sorted(e * 1e3 for _, _, e, _, _ in measured)
    completed_ok = sum(1 for _, b, e, ok, _ in runs if ok and window[0] <= b + e < window[1])
    failed = sum(1 for r in runs if not r[3])
    metrics = {
        "throughput_rps": completed_ok / seconds,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p90_ms": percentile(latencies, 90),
        "cpu_ms_per_req": cpu_s * 1e3 / len(runs),
        "peak_rss_mb": statistics.median(r[4] for r in measured),
        "setup_s": statistics.median(setup_samples),
    }
    detail = {
        "closed_loop": "one pslocal reduce process at a time",
        "latency_samples": len(latencies),
        "requests_total": len(runs),
        "error_rate": failed / len(runs),
        "setup_samples_s": setup_samples,
        "jobs": len(jobs),
        "multi_phase_jobs": sum(1 for j in jobs if j["phases"] >= 2),
        "outputs_checked": checked["checked"],
    }
    return len(runs), failed, metrics, detail


# ----------------------------------------------------------------- main


def load_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
        spec["run_seconds"],
    )


def run_workload(workload, seed, seconds, trace, tiny, bins, spec):
    pslocal, tool_bin = bins
    size = ["--tiny"] if tiny else []
    inputs = fresh(WORK / "inputs" / f"{workload}-{seed}")
    prepared = json.loads(tool(tool_bin, "prepare", "--workload", workload, "--seed", seed,
                               "--dir", inputs, *size))
    log(f"{workload}: inputs for seed {seed}: {prepared['summary']}")
    if trace:
        walked = json.loads(tool(tool_bin, "walk", "--workload", workload, "--seed", seed,
                                 "--dir", inputs, "--work", WORK / "walk", "--seconds", seconds,
                                 *size))
        attempted, failed, metrics = walked["attempted"], walked["failed"], walked["metrics"]
        detail = {"walk_divergent": walked["divergent"], "divergences": walked["divergences"]}
        units = spec[1]
    elif workload == "reduce-checkpointed":
        attempted, failed, metrics, detail = run_reduce(seconds, pslocal, tool_bin, inputs,
                                                        prepared["jobs"])
        units = spec[0]
    else:
        attempted, failed, metrics, detail = run_serve(seconds, pslocal, inputs,
                                                       prepared["clients"])
        units = spec[0]
    shutil.rmtree(inputs, ignore_errors=True)
    if set(metrics) != set(units):
        raise SystemExit(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
        "detail": detail,
    }


def report(result, host):
    w = result["workload"]
    print(f"{w} seed={result['seed']} trace={result['trace']}: {result['attempted']} attempted, "
          f"{result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    detail = result["detail"]
    if "error_rate" in detail:
        print(f"  error_rate = {detail['error_rate']:.6g} ratio "
              f"({detail['latency_samples']} latency samples)")
    if "stats" in detail:
        print("  STATS " + " ".join(f"{k}={v}" for k, v in sorted(detail["stats"].items())))
    print(f"  host nproc={host['nproc']} effective_parallelism={host['effective_parallelism']} "
          f"pinned_cpu={host['pinned_cpu']} commit={host['commit']}")
    record = dict(result, host=host)
    path = WORK / "results" / f"{w}-seed{result['seed']}-trace{result['trace']}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=2) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at a tiny size, both modes, must be error-free")
    args = parser.parse_args()

    spec = load_spec()
    bins = build()
    WORK.mkdir(exist_ok=True)
    host = json.loads(tool(bins[1], "host"))
    host["commit"] = commit_id()
    host["seed"] = args.seed
    # Everything measured runs on one CPU, inherited by every child. On
    # a shared host whose second core comes and goes, this keeps runs
    # comparable; no figure here is a claim about parallel speed-up.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    host["pinned_cpu"] = cpu

    if args.smoke:
        plan = [(w, t) for w in WORKLOADS for t in (0, 1)]
        tiny, seconds = True, 1.0
    else:
        workloads = WORKLOADS if args.workload == "all" else (args.workload,)
        plan = [(w, args.trace) for w in workloads]
        tiny, seconds = False, spec[2] if args.seconds is None else args.seconds

    results = []
    for workload, trace in plan:
        result = run_workload(workload, args.seed, seconds, trace, tiny, bins, spec)
        report(result, host)
        results.append(result)

    correct = all(r["correct"] for r in results)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{'trace.' if r['trace'] else ''}{n}": m
                   for r in results for n, m in r["metrics"].items()}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    if args.smoke:
        log("smoke: " + ("every workload error-free in both modes" if correct else "FAILED"))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
