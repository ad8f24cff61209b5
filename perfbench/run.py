"""The served-path benchmark: HTTP -> server -> service -> engine -> codec.

Usage (from the repository root)::

    python3 perfbench/run.py --workload replay_warm --seed 1 --seconds 20 --trace 0

The run launches ``repro-serve --port 0`` from ``src/`` as a subprocess with
its default flags and drives it from this process over two closed-loop
client connections (see ``loadgen.py``) with a workload generated from the
seed (see ``workload.py``).  The seed reaches only the generator; the server
receives KBs and queries.

``--trace 0`` measures the end-to-end metrics.  Set-up (launch until
``/healthz`` answers, plus the open pre-pass) is repeated
:data:`SETUP_LAUNCHES` times and its median reported; the last server then
serves the timed phase.

``--trace 1`` reports the per-layer metrics instead.  It first runs the
timed phase untraced, then replays exactly the same jobs against a server
started by ``traced_serve.py`` with client-side spans on; the ratio of the
two wall times is the tracing overhead.

Every answered row goes through the truth checks (``truth.py``).  The run
prints a human-readable report, writes the full result (environment,
counters, truth counts) to ``.perfbench/`` and ends with one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List

ROOT = Path(__file__).resolve().parents[1]
SETUP_LAUNCHES = 5
# A p90 needs 100 samples (10 beyond it); the timed phase runs past
# --seconds until it has them.
MIN_CALLS = 100
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better, bound); the order BENCHMARK.json lists them in.
END_TO_END: Dict[str, tuple] = {
    "setup_s": ("s", "lower", 0.25),
    "throughput_qps": ("1/s", "higher", 0.24),
    "latency_p50_ms": ("ms", "lower", 0.24),
    "latency_p90_ms": ("ms", "lower", 0.24),
    "calls_ok_share": ("share", "higher", 0.01),
    "expectation_match_share": ("share", "higher", 0.1),
    "law_holding_share": ("share", "higher", 0.1),
    "server_cpu_ms_per_query": ("ms", "lower", 0.24),
    "server_peak_rss_mb": ("MB", "lower", 0.05),
}


def _parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _environment(server_status: Dict[str, str]) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name, "unset") for name in BLAS_ENV},
        "server_threads": int(server_status.get("Threads", "0").strip() or 0),
    }


def _scrape(client, sessions: Dict[str, str]) -> Dict[str, Any]:
    """``/metrics`` counters plus every live session's ``/cache`` counters."""
    from layers import counter_values
    from repro.server import ServerError

    caches: Dict[str, Dict[str, Any]] = {}
    for kb, session_id in list(sessions.items()):
        try:
            caches[kb] = client.cache_info(session_id) or {}
        except ServerError:
            continue  # evicted by the server's LRU
    return {"metrics": counter_values(client.call("GET", "/metrics")["metrics"]), "caches": caches}


def _cache_delta(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "memo_hits": 0, "memo_misses": 0}
    for kb, info in after.items():
        for name in totals:
            totals[name] += info.get(name, 0) - before.get(kb, {}).get(name, 0)
    return totals


def _tally(workload, records) -> Dict[str, Any]:
    """Latency samples, answered rows, failed calls and truth counts of a run."""
    from loadgen import call_ok
    from repro.service.messages import BeliefResponse
    from truth import TruthLedger

    ledger = TruthLedger(workload.scenarios)
    latencies: List[float] = []
    answered = failed = 0
    in_range = True
    failures: List[str] = []
    for record in records:
        if not call_ok(record):
            failed += 1
            if len(failures) < 5:
                failures.append(f"{record.call.kind} {record.call.kb}: {record.error or 'unexpected rows'}")
        if record.call.kind == "open":
            continue
        latencies.append(record.latency_ms)
        for request, row in zip(record.call.requests, record.rows):
            if isinstance(row, BeliefResponse):
                answered += 1
                value = row.result.value
                in_range = in_range and (value is None or 0.0 <= value <= 1.0)
                ledger.observe(record.call.kb, request["query"], row.result.value, row.result.exists)
    slowest = sorted((record for record in records if record.call.kind != "open"), key=lambda r: -r.latency_ms)[:10]
    return {
        "latencies": latencies,
        "slowest_calls": [
            {
                "ms": record.latency_ms,
                "kind": record.call.kind,
                "family": workload.scenarios[record.call.kb].family,
                "queries": [request["query"] for request in record.call.requests],
            }
            for record in slowest
        ],
        "answered": answered,
        "attempted": len(records),
        "failed": failed,
        "failures": failures,
        "values_in_range": in_range,
        "truth": ledger.summary(),
    }


def _timed(workload, seconds: float, log_path: Path) -> Dict[str, Any]:
    from layers import counter_deltas
    from loadgen import ServerProcess, open_sessions, proc_cpu_s, proc_status, run_closed_loop
    from repro.server import Client
    from summary import percentile

    setups: List[float] = []
    server = None
    try:
        for launch in range(SETUP_LAUNCHES):
            server = ServerProcess(ROOT, log_path=log_path)
            server.start()
            prepass_start = time.perf_counter()
            sessions = open_sessions(Client(server.url), workload, workload.prepass)
            setups.append(server.launch_s + time.perf_counter() - prepass_start)
            if launch < SETUP_LAUNCHES - 1:
                server.stop()
        client = Client(server.url)
        before = _scrape(client, sessions)
        cpu_before = proc_cpu_s(server.pid)
        records, jobs, wall = run_closed_loop(
            server.url, workload, sessions, seconds=seconds, min_calls=MIN_CALLS
        )
        cpu_s = proc_cpu_s(server.pid) - cpu_before
        status = proc_status(server.pid)
        after = _scrape(client, sessions)
    finally:
        if server is not None:
            server.stop()
    tally = _tally(workload, records)
    latencies, answered = tally["latencies"], tally["answered"]
    truth = tally["truth"]
    rows = max(answered, 1)
    checked = truth["expectation_checked"]
    metrics = {
        "setup_s": statistics.median(setups),
        "throughput_qps": answered / wall,
        "latency_p50_ms": percentile(latencies, 0.5),
        "latency_p90_ms": percentile(latencies, 0.9),
        "calls_ok_share": 1.0 - tally["failed"] / tally["attempted"],
        "expectation_match_share": 1.0 - truth["expectation_mismatches"] / checked if checked else 1.0,
        "law_holding_share": 1.0 - truth["law_violations"] / truth["law_checks"] if truth["law_checks"] else 1.0,
        "server_cpu_ms_per_query": cpu_s * 1000.0 / rows,
        "server_peak_rss_mb": int(status["VmHWM"].split()[0]) / 1024.0,
    }
    return {
        "metrics": metrics,
        "setups_s": setups,
        "wall_s": wall,
        "jobs": jobs,
        "latency_p99_ms": percentile(latencies, 0.99),
        "samples": len(latencies),
        "counters": counter_deltas(before["metrics"], after["metrics"]),
        "session_cache_delta": _cache_delta(before["caches"], after["caches"]),
        "environment": _environment(status),
        **{key: value for key, value in tally.items() if key != "latencies"},
    }


def _traced(workload, seconds: float, out_dir: Path, log_path: Path) -> Dict[str, Any]:
    from layers import counter_deltas, counter_values, join_calls, layer_metrics
    from loadgen import ServerProcess, open_sessions, proc_status, run_closed_loop
    from repro.server import Client
    from tracing import Recorder, install_client_wrappers

    with ServerProcess(ROOT, log_path=log_path) as server:
        sessions = open_sessions(Client(server.url), workload, workload.prepass)
        # The traced replay of these jobs takes longer again, so the
        # untraced phase is capped well below the run's time limit.
        _, jobs, untraced_wall = run_closed_loop(
            server.url, workload, sessions, seconds=seconds, min_calls=MIN_CALLS, hard_cap_s=60.0
        )

    recorder = Recorder()
    install_client_wrappers(recorder)

    def traced_call(call, send):
        if call.kind == "open":
            return send()
        frame, token = recorder.open_span()
        frame.keys.extend(request["request_id"] for request in call.requests)
        start = time.monotonic_ns()
        try:
            return send()
        finally:
            recorder.close_span("server.call", frame, token, start)

    spans_path = out_dir / f"spans-{os.getpid()}.json"
    server = ServerProcess(ROOT, spans_path=spans_path, log_path=log_path)
    try:
        server.start()
        client = Client(server.url)
        sessions = open_sessions(client, workload, workload.prepass)
        before = counter_values(client.call("GET", "/metrics")["metrics"])
        window_start = time.monotonic_ns()
        records, _, traced_wall = run_closed_loop(server.url, workload, sessions, jobs=jobs, wrap=traced_call)
        window_end = time.monotonic_ns()
        after = counter_values(client.call("GET", "/metrics")["metrics"])
        status = proc_status(server.pid)
    finally:
        server.stop()
    with open(spans_path, "r", encoding="utf-8") as handle:
        server_spans = [span for span in json.load(handle) if window_start <= span[1] and span[2] <= window_end]
    spans_path.unlink()
    tally = _tally(workload, records)
    metrics = layer_metrics(join_calls(recorder.spans, server_spans), tally["answered"], counter_deltas(before, after))
    return {
        "metrics": metrics,
        "jobs": jobs,
        "wall_s": traced_wall,
        "untraced_wall_s": untraced_wall,
        "tracing_overhead": traced_wall / untraced_wall,
        "spans": len(server_spans) + len(recorder.spans),
        "environment": _environment(status),
        **{key: value for key, value in tally.items() if key != "latencies"},
    }


def _report(args, result: Dict[str, Any], units: Dict[str, str]) -> None:
    """The human-readable lines printed above the result line."""
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + json.dumps(result["environment"], sort_keys=True))
    print(
        f"calls: attempted={result['attempted']} failed={result['failed']} "
        f"answered_rows={result['answered']} jobs={result['jobs']} wall_s={result['wall_s']:.3f}"
    )
    for failure in result["failures"]:
        print(f"  failed call: {failure}")
    truth = result["truth"]
    print(f"ops_failed_share: {result['failed'] / result['attempted']:.6f} share")
    print(
        f"expectation_mismatches: {truth['expectation_mismatches']} count "
        f"(of {truth['expectation_checked']} rows checked)"
    )
    print(f"law_violations: {truth['law_violations']} count (of {truth['law_checks']} checks)")
    if args.trace:
        print(f"tracing_overhead: {result['tracing_overhead']:.3f} (traced {result['wall_s']:.3f} s / untraced "
              f"{result['untraced_wall_s']:.3f} s on the same {result['jobs']} jobs)")
    else:
        p99 = result["latency_p99_ms"]
        print(
            f"latency_p99_ms: {p99:.3f} ms" if p99 is not None
            else f"latency_p99_ms: n/a ({result['samples']} samples; a p99 needs 1000)"
        )
        print(f"setup_s runs: {', '.join(f'{value:.3f}' for value in result['setups_s'])}")
        print("counters (/metrics delta): " + json.dumps(result["counters"], sort_keys=True))
        print("session caches (/cache delta): " + json.dumps(result["session_cache_delta"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"{name}: {value} {units[name]}")


def main(argv: List[str]) -> int:
    args = _parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from layers import PER_LAYER
    from workload import WORKLOADS, build

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of {WORKLOADS}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    log_path = out_dir / "server.log"
    workload = build(args.workload, args.seed)
    if args.trace:
        result = _traced(workload, args.seconds, out_dir, log_path)
    else:
        result = _timed(workload, args.seconds, log_path)
    units = {name: spec[0] for name, spec in (PER_LAYER if args.trace else END_TO_END).items()}
    missing = [name for name, value in result["metrics"].items() if value is None]
    _report(args, result, units)
    detail = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(detail, "w", encoding="utf-8") as handle:
        json.dump({key: value for key, value in result.items() if key != "latencies"}, handle, indent=1, sort_keys=True)
    if missing:
        print(f"perfbench: too few samples for {', '.join(missing)}", file=sys.stderr)
        return 1
    # Expectation mismatches and law violations are known defects of the
    # served answers: they are counted and bounded as metrics, not failed on.
    correct = result["failed"] == 0 and result["values_in_range"]
    line = {
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
