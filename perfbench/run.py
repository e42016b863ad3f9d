"""The repo benchmark: HTTP ``/ask`` traffic against a served cluster.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is ``read_hot``, ``ingest_durable``, ``fleet_proc`` (see
``BENCHMARK.json`` for why each exists), or ``all`` to run each in turn.
The server runs in its own process, with caches and obs on as ``repro
serve`` ships them; this process is the load generator (``loadgen.py``).

A run (``--trace 0``):

1. set up three times: launch the server, open the connections, send
   the workload's population requests; ``setup_s`` is the median, and
   the third server is the one measured;
2. warm up (not measured): ``read_hot`` and ``fleet_proc`` read every
   (session, spec) pair once; ``ingest_durable`` runs its own stream
   for ``WARMUP_S`` at the open-loop rate;
3. open loop for ``OPEN_SHARE`` of ``--seconds`` at the workload's
   fixed rate: latency percentiles, timed from each request's due time;
4. closed loop on every connection for the rest: ``goodput_rps``;
5. stop the server, then check every response (``verify.py``).

With ``--trace 1`` one untraced server runs the warm-up and an open
loop of a third of ``--seconds``, then a traced server
(``launcher.py --trace-dump``) runs warm-up, open and closed loops of a
third each, and the per-layer metrics come from its span dump
(``layers.py``).  ``trace_overhead`` compares the two read p50s.

The human-readable report goes to stdout; its last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Results and span dumps are kept under ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

import layers
import loadgen
from workloads import WORKLOADS, open_loop_interval

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench")

SETUPS = 3
WARMUP_S = 2.0
OPEN_SHARE = 0.75
STOP_TIMEOUT_S = 30.0
LISTEN_TIMEOUT_S = 60.0


def cpu_ticks() -> List[int]:
    """The host's ``/proc/stat`` cpu line: user, nice, system, idle,
    iowait, irq, softirq, steal, ..."""
    with open("/proc/stat", encoding="utf-8") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def host_fingerprint() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": loadgen.max_connections(),
        "python": platform.python_version(),
        "cpu": cpu,
    }


# -- the server process ----------------------------------------------------------


def _stat(pid) -> Optional[List[str]]:
    """Fields 3.. of ``/proc/PID/stat`` (state, ppid, ..., utime at
    index 11, stime at 12), or None for a gone or zombie process."""
    try:
        with open(f"/proc/{pid}/stat", encoding="utf-8") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except (OSError, IndexError):
        return None
    return None if fields[0] == "Z" else fields


def _process_table() -> Dict[int, List[int]]:
    """Parent pid -> live child pids."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        fields = _stat(entry) if entry.isdigit() else None
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    return children


def process_tree(pid: int) -> List[int]:
    """``pid`` and its live descendants."""
    children = _process_table()
    tree, stack = [], [pid]
    while stack:
        current = stack.pop()
        tree.append(current)
        stack.extend(children.get(current, []))
    return tree


class Server:
    """One server process (plus its worker processes, if any)."""

    def __init__(self, workload, conns: int, directory: str, trace_dump: Optional[str]):
        os.makedirs(directory, exist_ok=True)
        self.store = os.path.join(directory, "store")
        self.log_path = os.path.join(directory, "server.log")
        spec = workload.server(conns)
        if "durable" in spec:
            command = ["durable", "--root", self.store]
        else:
            command = ["serve", "--port", "0", "--root", self.store, *spec["serve"]]
        if trace_dump is None and "serve" in spec:
            # exactly what a user runs
            self.argv = [sys.executable, "-m", "repro", *command]
        else:
            launcher = os.path.join(HERE, "launcher.py")
            dump = [] if trace_dump is None else ["--trace-dump", trace_dump]
            self.argv = [sys.executable, launcher, *dump, *command]
        self.process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0

    def start(self) -> "Server":
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                self.argv, stdout=subprocess.DEVNULL, stderr=log, cwd=ROOT, env=env
            )
        deadline = time.perf_counter() + LISTEN_TIMEOUT_S
        pattern = re.compile(r"listening on http://([^:/\s]+):(\d+)")
        while True:
            with open(self.log_path, encoding="utf-8", errors="replace") as log:
                match = pattern.search(log.read())
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return self
            if self.process.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                with open(self.log_path, encoding="utf-8", errors="replace") as log:
                    raise RuntimeError(f"server did not start: {log.read()[-2000:]}")
            time.sleep(0.002)

    def peak_rss_mib(self) -> float:
        """Sum of peak RSS (VmHWM) over the server and its descendants."""
        total_kib = 0
        for pid in process_tree(self.process.pid):
            try:
                with open(f"/proc/{pid}/status", encoding="utf-8") as handle:
                    for line in handle:
                        if line.startswith("VmHWM:"):
                            total_kib += int(line.split()[1])
            except OSError:
                continue
        return total_kib / 1024

    def cpu_s(self) -> float:
        """User + system CPU seconds used so far by the server and its
        live descendants."""
        ticks = 0
        for pid in process_tree(self.process.pid):
            fields = _stat(pid)
            if fields is not None:
                ticks += int(fields[11]) + int(fields[12])
        return ticks / os.sysconf("SC_CLK_TCK")

    def stop(self) -> None:
        """SIGINT (the server's clean shutdown), then wait until the
        server and every process it started have ended; what is still
        alive after the timeout is killed."""
        process, self.process = self.process, None
        if process is None:
            return
        descendants = process_tree(process.pid)[1:]
        if process.poll() is None:
            process.send_signal(signal.SIGINT)
            try:
                process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        deadline = time.perf_counter() + STOP_TIMEOUT_S
        while any(_stat(pid) is not None for pid in descendants):
            if time.perf_counter() > deadline:
                for pid in descendants:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
            time.sleep(0.01)


# -- one run ----------------------------------------------------------------------


def launch(workload, seed, conns_n, directory, trace_dump=None):
    """Launch, connect, populate: ``(server, connections, results, setup_s)``."""
    started = time.perf_counter()
    server = Server(workload, conns_n, directory, trace_dump).start()
    try:
        conns = [loadgen.Connection(server.host, server.port) for _ in range(conns_n)]
        results = loadgen.run_list(conns, workload.setup_requests(seed, conns_n), "setup")
    except BaseException:
        server.stop()
        raise
    return server, conns, results, time.perf_counter() - started


def close_all(conns) -> None:
    for conn in conns:
        conn.close()


def store_bytes(root: str) -> int:
    total = 0
    for directory, _dirs, files in os.walk(root):
        for name in files:
            total += os.path.getsize(os.path.join(directory, name))
    return total


class Run:
    """Everything one server saw, in send order per connection."""

    def __init__(self, workload, seed: int, conns_n: int):
        self.workload = workload
        self.seed = seed
        self.conns_n = conns_n
        self.interval = open_loop_interval(workload, conns_n)
        self.results: List[loadgen.Result] = []
        self.closed_s = 0.0
        self.rss_mib = 0.0
        self.cpu_ms_per_req = 0.0
        self.store_bytes = 0

    def per_conn(self, seconds: float) -> int:
        return max(1, round(seconds / self.interval))

    def drive(self, server, conns, open_s: float, closed_s: float) -> None:
        streams = [
            self.workload.stream(self.seed, c, self.conns_n) for c in range(self.conns_n)
        ]
        warmup = self.workload.warmup_requests(self.seed, self.conns_n)
        if warmup is None:
            self.results += loadgen.run_open(
                conns, streams, "warmup", self.interval, self.per_conn(WARMUP_S)
            )
        else:
            self.results += loadgen.run_list(conns, warmup, "warmup")
        cpu_s = server.cpu_s()
        measured = loadgen.run_open(
            conns, streams, "open", self.interval, self.per_conn(open_s)
        )
        if closed_s > 0:
            closed, self.closed_s = loadgen.run_closed(conns, streams, "closed", closed_s)
            measured += closed
        self.cpu_ms_per_req = (server.cpu_s() - cpu_s) * 1000 / len(measured)
        self.results += measured
        self.rss_mib = server.peak_rss_mib()

    def finish(self, server, conns) -> None:
        close_all(conns)
        server.stop()
        self.store_bytes = store_bytes(server.store)

    def phase(self, name: str, kind: Optional[str] = None, ok_only: bool = False):
        return [
            r for r in self.results
            if r.phase == name
            and (kind is None or r.request.kind == kind)
            and (not ok_only or r.ok)
        ]


class Checker:
    """Checks every response and keeps the books of the result line."""

    def __init__(self) -> None:
        self.attempted = self.failed = 0
        self.failures: List[str] = []

    def check(self, replica, results) -> None:
        import verify

        for result, reason in verify.check_all(replica, results):
            result.ok = False
            self.failures.append(reason)
        self.attempted += len(results)
        self.failed += sum(1 for r in results if not r.ok)


def run_workload(workload, seed: int, seconds: float, trace: bool, directory: str):
    import verify

    conns_n = loadgen.max_connections()
    checker = Checker()
    ticks = cpu_ticks()

    def measure(label: str, open_s: float, closed_s: float, dump: Optional[str] = None):
        """One server: launch, populate, drive, stop, check; returns
        the run and its set-up time."""
        replica = verify.Replica()
        server, conns, setup, setup_s = launch(
            workload, seed, conns_n, os.path.join(directory, label), dump
        )
        checker.check(replica, setup)
        run = Run(workload, seed, conns_n)
        try:
            run.drive(server, conns, open_s, closed_s)
        finally:
            run.finish(server, conns)
        checker.check(replica, run.results)
        return run, setup_s

    report: Dict[str, object] = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_fingerprint(),
        "connections": conns_n,
        "offered_rps": workload.rate_rps,
    }
    if not trace:
        setup_times = []
        for index in range(SETUPS - 1):
            server, conns, setup, setup_s = launch(
                workload, seed, conns_n, os.path.join(directory, f"setup-{index}")
            )
            close_all(conns)
            server.stop()
            checker.check(verify.Replica(), setup)
            setup_times.append(setup_s)
        run, setup_s = measure(
            "measured", seconds * OPEN_SHARE, seconds * (1 - OPEN_SHARE)
        )
        setup_times.append(setup_s)
        report["setup_s_runs"] = setup_times
        report.update(summarize(run, statistics.median(setup_times)))
    else:
        third = seconds / 3
        plain, _ = measure("untraced", third, 0)
        untraced = summarize(plain, None)
        dump_path = os.path.join(directory, "spans.json")
        run, _ = measure("traced", third, third, dump_path)
        traced = summarize(run, None)
        with open(dump_path, encoding="utf-8") as handle:
            dump = json.load(handle)
        measured = run.phase("open") + run.phase("closed")
        read_p50_ms = traced["metrics"]["read_p50_ms"]["value"]
        base = untraced["metrics"]["read_p50_ms"]["value"]
        client = {
            "store.bytes_per_write": _bytes_per_write(run),
            "loadgen.lag_p90_ms": traced["open_loop"]["lag_p90_ms"],
            "loadgen.sent": len(measured),
            "loadgen.failed": sum(1 for r in measured if not r.ok),
            "trace_overhead": read_p50_ms / base if base else 0.0,
        }
        metrics = layers.per_layer(dump, measured, read_p50_ms / 1000, client)
        units = {row["name"]: row["unit"] for row in layers.per_layer_catalogue()}
        report["metrics"] = {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        }
        self_s = layers.self_times(layers.measured_spans(dump, measured))
        report["self_ms_per_req"] = {
            name: total * 1000 / max(1, len(measured)) for name, total in self_s.items()
        }
        report["untraced"] = untraced
        report["traced"] = traced
        report["span_dump"] = dump_path
    # time the hypervisor ran someone else on the host's CPUs: a run
    # with a large share was measured on a contended host
    spent = [b - a for a, b in zip(ticks, cpu_ticks())]
    report["host_steal_share"] = spent[7] / max(1, sum(spent[:8]))
    report.update(
        correct=checker.failed == 0,
        attempted=checker.attempted,
        failed=checker.failed,
        error_rate=checker.failed / checker.attempted if checker.attempted else 1.0,
        failures=checker.failures[:20],
    )
    return report


def _bytes_per_write(run: Run) -> float:
    if not run.workload.server(run.conns_n).get("durable"):
        return 0.0
    writes = 1 + sum(
        1 for r in run.results if r.request.kind == "write" and r.ok
    )  # + the demo session's Query 1
    return run.store_bytes / writes


def summarize(run: Run, setup_s: Optional[float]) -> Dict[str, object]:
    """End-to-end metrics of one measured server, with sample counts."""
    metrics: Dict[str, Dict[str, float]] = {}
    samples: Dict[str, int] = {}
    for kind in ("read", "write", "fleet"):
        # a failed request misses every latency limit: it counts as
        # taking the whole client timeout
        latencies = [
            (r.latency_s if r.ok else loadgen.REQUEST_TIMEOUT_S) * 1000
            for r in run.phase("open", kind)
        ]
        if not latencies:
            continue
        for q in (50, 90):
            name = f"{kind}_p{q}_ms"
            metrics[name] = {"value": layers.percentile(latencies, q / 100), "unit": "ms"}
            samples[name] = len(latencies)
    opened = run.phase("open")
    closed_ok = run.phase("closed", ok_only=True)
    if run.closed_s:
        metrics["goodput_rps"] = {"value": len(closed_ok) / run.closed_s, "unit": "req/s"}
        samples["goodput_rps"] = len(closed_ok)
    if setup_s is not None:
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
    metrics["server_rss_mb"] = {"value": run.rss_mib, "unit": "MiB"}
    metrics["server_cpu_ms_per_req"] = {"value": run.cpu_ms_per_req, "unit": "ms"}
    if run.workload.server(run.conns_n).get("durable"):
        metrics["store_bytes_per_write"] = {"value": _bytes_per_write(run), "unit": "B"}
    span = (
        max(r.done for r in opened) - min(r.due for r in opened) if opened else 0.0
    )
    return {
        "metrics": metrics,
        "samples": samples,
        "open_loop": {
            "offered_rps": run.workload.rate_rps,
            "achieved_rps": len(opened) / span if span else 0.0,
            "lag_p50_ms": layers.percentile([r.lag_s * 1000 for r in opened], 0.5),
            "lag_p90_ms": layers.percentile([r.lag_s * 1000 for r in opened], 0.9),
            "sent": len(opened),
        },
        "closed_loop": {"seconds": run.closed_s, "completed_ok": len(closed_ok)},
    }


# -- output -------------------------------------------------------------------------


def print_report(report: Dict[str, object]) -> None:
    host = report["host"]
    print(
        f"perfbench {report['workload']} seed={report['seed']} "
        f"seconds={report['seconds']} trace={report['trace']} "
        f"connections={report['connections']} nproc={host['nproc']} "
        f"python={host['python']} cpu={host['cpu']!r} "
        f"steal={report['host_steal_share']:.4f}"
    )
    body = report if not report["trace"] else report["traced"]
    if report["trace"]:
        print("  end-to-end of the traced server:")
    loop = body["open_loop"]
    print(
        f"  open loop: offered {loop['offered_rps']:.2f} req/s, achieved "
        f"{loop['achieved_rps']:.2f} req/s, lag p50 {loop['lag_p50_ms']:.3f} ms "
        f"p90 {loop['lag_p90_ms']:.3f} ms, {loop['sent']} sent"
    )
    samples = body["samples"]
    for name, metric in body["metrics"].items():
        count = f"  (n={samples[name]})" if name in samples else ""
        print(f"  {name:<34} {metric['value']:>12.4f} {metric['unit']}{count}")
    if report["trace"]:
        print("  per-layer (traced run):")
        for name, metric in report["metrics"].items():
            print(f"    {name:<44} {metric['value']:>12.4f} {metric['unit']}")
        print("  self time per request, ms:")
        for name, value in sorted(report["self_ms_per_req"].items(), key=lambda kv: -kv[1]):
            print(f"    {name:<44} {value:>12.4f}")
        print(f"  span dump: {os.path.relpath(report['span_dump'], ROOT)}")
    print(
        f"  error_rate {report['error_rate']:.6f} ratio "
        f"({report['failed']} failed / {report['attempted']} attempted)"
    )
    for reason in report["failures"]:
        print(f"  failure: {reason}")


def contract_line(report: Dict[str, object], names: Sequence[str]) -> Dict[str, object]:
    metrics = report["metrics"]
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: metrics[name] for name in names},
    }


def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)  # verify.py imports the program
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown or args.seconds <= 0:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        contract = json.load(handle)
    section = "per_layer" if args.trace else "end_to_end"
    wanted = [row["name"] for row in contract[section]]
    lines = []
    results_dir = os.path.join(WORK, "results")
    os.makedirs(results_dir, exist_ok=True)
    for name in names:
        tag = f"{name}-seed{args.seed}-trace{args.trace}"
        directory = os.path.join(WORK, f"{tag}-{os.getpid()}")
        try:
            report = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace), directory)
            if args.trace:
                kept = os.path.join(results_dir, f"{tag}-spans.json")
                shutil.copyfile(report["span_dump"], kept)
                report["span_dump"] = kept
        finally:
            shutil.rmtree(directory, ignore_errors=True)
        with open(os.path.join(results_dir, f"{tag}.json"), "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True, default=str)
        print_report(report)
        lines.append(contract_line(report, wanted))
    if len(lines) == 1:
        print(json.dumps(lines[0]))
    else:
        print(
            json.dumps(
                {
                    "correct": all(line["correct"] for line in lines),
                    "attempted": sum(line["attempted"] for line in lines),
                    "failed": sum(line["failed"] for line in lines),
                    "metrics": {
                        f"{name}.{metric}": value
                        for name, line in zip(names, lines)
                        for metric, value in line["metrics"].items()
                    },
                }
            )
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
