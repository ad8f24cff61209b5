"""The server under test and the closed-loop load generator.

:class:`ServerProcess` launches ``repro-serve --port 0`` (as
``python -u -m repro.server.cli``, or the traced launcher) from the checkout's
``src`` tree with its default flags, reads the URL line from its unbuffered
stdout and waits for ``/healthz``.  Its argv never carries the workload seed.

:func:`run_closed_loop` drives the jobs of a workload through
:class:`TimingClient` (a timing proxy around ``repro.server.Client``) on
:data:`CONNECTIONS` threads.  Each connection sends its next call only after
the previous reply has fully arrived; a stream call ends at its last row.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from http.client import HTTPException
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.server import Client, ServerError
from repro.service.messages import BeliefResponse, ErrorResponse

from workload import Call, Workload, is_malformed

CONNECTIONS = 2
LAUNCH_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 30.0
CLIENT_TIMEOUT_S = 120.0


class ServerProcess:
    """One ``repro-serve`` subprocess; use as a context manager."""

    def __init__(self, root: Path, *, spans_path: Optional[Path] = None, log_path: Optional[Path] = None):
        self.root = root
        self.spans_path = spans_path
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.url = ""
        self.launch_s = 0.0

    def argv(self) -> List[str]:
        if self.spans_path is None:
            return [sys.executable, "-u", "-m", "repro.server.cli", "--port", "0"]
        launcher = str(Path(__file__).resolve().parent / "traced_serve.py")
        return [sys.executable, "-u", launcher, str(self.spans_path), "--port", "0"]

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        source = str(self.root / "src")
        env["PYTHONPATH"] = source + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        stderr = open(self.log_path, "ab") if self.log_path is not None else subprocess.DEVNULL
        started = time.perf_counter()
        try:
            self.process = subprocess.Popen(
                self.argv(), cwd=self.root, env=env, stdout=subprocess.PIPE, stderr=stderr
            )
        finally:
            if self.log_path is not None:
                stderr.close()
        try:
            self.url = self._read_url(started + LAUNCH_TIMEOUT_S)
            client = Client(self.url, timeout=5.0)
            while True:
                try:
                    client.healthz()
                    break
                except OSError:
                    if time.perf_counter() > started + LAUNCH_TIMEOUT_S:
                        raise RuntimeError("repro-serve never answered /healthz")
                    time.sleep(0.01)
        except BaseException:
            self.stop()
            raise
        self.launch_s = time.perf_counter() - started
        return self

    def _read_url(self, deadline: float) -> str:
        assert self.process is not None and self.process.stdout is not None
        buffer = b""
        while b"\n" not in buffer:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise RuntimeError(f"repro-serve did not print its URL (output so far: {buffer!r})")
            ready, _, _ = select.select([self.process.stdout], [], [], remaining)
            if ready:
                chunk = os.read(self.process.stdout.fileno(), 4096)
                if not chunk:
                    continue
                buffer += chunk
        line = buffer.split(b"\n", 1)[0].decode("utf-8")
        for word in line.split():
            if word.startswith("http://"):
                return word
        raise RuntimeError(f"no URL in the repro-serve banner: {line!r}")

    @property
    def pid(self) -> int:
        assert self.process is not None
        return self.process.pid

    def stop(self) -> None:
        """SIGTERM, then wait (the traced launcher writes its spans first)."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        if self.process.stdout is not None:
            self.process.stdout.close()
        self.process = None

    def __enter__(self) -> "ServerProcess":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (field 3); utime and stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def proc_status(pid: int) -> Dict[str, str]:
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        return dict(line.split(":", 1) for line in handle if ":" in line)


def open_sessions(client: Client, workload: Workload, kbs: Sequence[str]) -> Dict[str, str]:
    """Open KBs (the pre-pass); returns fingerprint -> session id."""
    return {kb: client.call("POST", "/v1/sessions", workload.open_payload(kb))["session_id"] for kb in kbs}


@dataclass
class CallRecord:
    """One finished call as the client saw it."""

    call: Call
    start_ns: int
    end_ns: int
    rows: List[Any] = field(default_factory=list)  # BeliefResponse / ErrorResponse
    error: str = ""
    session_id: str = ""

    @property
    def latency_ms(self) -> float:
        return (self.end_ns - self.start_ns) / 1e6


class TimingClient:
    """A timing proxy around :class:`repro.server.Client` for one connection.

    ``wrap(call, send)`` (the traced run's span hook) runs around every
    call.  The proxy never retries and never aborts on a failed call: an
    HTTP error, a transport error or an undecodable reply is recorded on the
    call and the connection goes on.
    """

    def __init__(self, url: str, workload: Workload, sessions: Dict[str, str], wrap: Optional[Callable] = None):
        self.client = Client(url, timeout=CLIENT_TIMEOUT_S)
        self.workload = workload
        self.sessions = sessions
        self.wrap = wrap

    def _send(self, call: Call, record: CallRecord) -> None:
        if call.kind == "open":
            opened = self.client.call("POST", "/v1/sessions", self.workload.open_payload(call.kb))
            record.session_id = self.sessions[call.kb] = opened["session_id"]
            return
        session_id = self.sessions[call.kb]
        if call.kind == "query":
            record.rows = [self.client.query(session_id, call.requests[0])]
        elif call.kind == "query_batch":
            record.rows = self.client.query_batch(session_id, list(call.requests))
        else:
            record.rows = list(self.client.stream(session_id, list(call.requests)))

    def run(self, call: Call) -> CallRecord:
        record = CallRecord(call, time.monotonic_ns(), 0)
        try:
            if self.wrap is not None:
                self.wrap(call, lambda: self._send(call, record))
            else:
                self._send(call, record)
        except ServerError as error:
            record.error = f"{error.status} {error.code}"
        except (OSError, HTTPException) as error:
            record.error = f"transport: {error!r}"
        except (KeyError, ValueError) as error:
            record.error = f"undecodable reply: {error!r}"
        record.end_ns = time.monotonic_ns()
        return record


def run_closed_loop(
    url: str,
    workload: Workload,
    sessions: Dict[str, str],
    *,
    seconds: Optional[float] = None,
    min_calls: int = 0,
    hard_cap_s: float = 150.0,
    jobs: Optional[int] = None,
    wrap: Optional[Callable] = None,
) -> Tuple[List[CallRecord], int, float]:
    """Run jobs on :data:`CONNECTIONS` closed-loop connections.

    Time-bounded mode (``seconds``): connections take jobs in order until
    ``seconds`` have passed and at least ``min_calls`` query calls finished
    (or ``hard_cap_s`` passed).  Count mode (``jobs``): exactly the first
    ``jobs`` jobs.  Returns ``(records, jobs started, wall seconds)``; the
    wall time runs from the loop's start to the last reply.
    """
    lock = threading.Lock()
    state = {"next": 0, "query_calls": 0}
    records: List[List[CallRecord]] = [[] for _ in range(CONNECTIONS)]
    started = time.perf_counter()

    def more() -> Optional[Tuple[Call, ...]]:
        with lock:
            index = state["next"]
            if jobs is not None:
                if index >= jobs:
                    return None
            else:
                elapsed = time.perf_counter() - started
                if elapsed >= hard_cap_s or (elapsed >= seconds and state["query_calls"] >= min_calls):
                    return None
            job = workload.job(index)
            if job is not None:
                state["next"] = index + 1
            return job

    def connection(slot: int) -> None:
        client = TimingClient(url, workload, sessions, wrap)
        while True:
            job = more()
            if job is None:
                return
            for call in job:
                record = client.run(call)
                records[slot].append(record)
                if call.kind != "open":
                    with lock:
                        state["query_calls"] += 1

    threads = [
        threading.Thread(target=connection, args=(slot,), name=f"perfbench-conn{slot}") for slot in range(CONNECTIONS)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - started
    merged = sorted((record for per_slot in records for record in per_slot), key=lambda record: record.start_ns)
    return merged, state["next"], wall


def call_ok(record: CallRecord) -> bool:
    """A call succeeded as expected: every row answered in order, malformed rows refused.

    An injected malformed row must come back as a ``bad-request``
    ``ErrorResponse``; anything else (an HTTP error, a missing or reordered
    row, an error on a well-formed request) is a failed call.
    """
    if record.error:
        return False
    if record.call.kind == "open":
        return bool(record.session_id)
    if len(record.rows) != len(record.call.requests):
        return False
    for request, row in zip(record.call.requests, record.rows):
        if row.request_id != request["request_id"]:
            return False
        if is_malformed(request):
            if not (isinstance(row, ErrorResponse) and row.code == "bad-request"):
                return False
        elif not isinstance(row, BeliefResponse):
            return False
    return True
