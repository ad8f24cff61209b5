"""The observability layer: registry semantics, concurrency exactness, /metrics.

Three properties carry the weight here:

* counters and histograms stay *exact* under concurrent updates (no lost
  increments, bucket counts summing to the observation count);
* a ``/metrics`` scrape is non-blocking — it completes while a query is
  parked inside a solver;
* scraped counters are monotonic across scrapes taken under live load.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.request

import pytest

from repro.core import BeliefResult
from repro.obs import DEFAULT_LATENCY_BUCKETS_MS, Histogram, MetricsRegistry
from repro.server import Client, SessionManager, serve_in_background
from repro.service import QueryRequest, Solver, build_default_registry

HEP_KB = "Jaun(Eric) and %(Hep(x) | Jaun(x); x) ~=[1] 0.8"


# ---------------------------------------------------------------------------
# Registry unit behaviour
# ---------------------------------------------------------------------------


class TestRegistryBasics:
    def test_counter_counts_and_rejects_decrements(self):
        registry = MetricsRegistry()
        requests = registry.counter("requests_total")
        requests.inc()
        requests.inc(3)
        assert requests.value == 4
        with pytest.raises(ValueError):
            requests.inc(-1)

    def test_gauge_moves_both_ways(self):
        gauge = MetricsRegistry().gauge("inflight")
        gauge.set(5)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 4

    def test_histogram_buckets_sum_to_count(self):
        histogram = Histogram(buckets=(1.0, 10.0, 100.0))
        for value in (0.2, 0.9, 1.0, 5.0, 99.0, 100.0, 1e6):
            histogram.observe(value)
        counts = histogram.bucket_counts()
        assert sum(counts) == histogram.count == 7
        # Bounds are inclusive upper edges; the last slot is +Inf.
        assert counts == [3, 1, 2, 1]
        assert histogram.sum == pytest.approx(0.2 + 0.9 + 1.0 + 5.0 + 99.0 + 100.0 + 1e6)

    def test_histogram_rejects_bad_bucket_specs(self):
        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(1.0, 1.0, 2.0))

    def test_labelled_children_are_distinct_and_cached(self):
        family = MetricsRegistry().counter("responses_total", labelnames=("route", "status"))
        family.labels(route="/healthz", status=200).inc()
        family.labels(route="/healthz", status=200).inc()
        family.labels(route="/metrics", status=200).inc()
        assert family.labels(route="/healthz", status="200").value == 2
        assert family.labels(route="/metrics", status="200").value == 1

    def test_label_names_are_validated(self):
        family = MetricsRegistry().counter("responses_total", labelnames=("route",))
        with pytest.raises(ValueError):
            family.labels(path="/healthz")
        with pytest.raises(ValueError):
            family.inc()  # label-less convenience refused on a labelled family

    def test_getters_are_idempotent_but_kind_checked(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total", labelnames=("route",))
        assert registry.counter("requests_total", labelnames=("route",)) is first
        with pytest.raises(ValueError):
            registry.gauge("requests_total")
        with pytest.raises(ValueError):
            registry.counter("requests_total", labelnames=("other",))

    def test_namespace_prefixes_every_family(self):
        registry = MetricsRegistry(namespace="app")
        registry.counter("hits")
        assert [family.name for family in registry.families()] == ["app_hits"]


class TestExports:
    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("requests_total", help="requests").inc(2)
        registry.histogram("latency_ms", buckets=(1.0, 10.0)).observe(3.0)
        snapshot = json.loads(json.dumps(registry.snapshot()))  # JSON-compatible
        counter = snapshot["repro_requests_total"]
        assert counter["type"] == "counter"
        assert counter["values"] == [{"value": 2, "labels": {}}]
        histogram = snapshot["repro_latency_ms"]["values"][0]
        assert histogram["count"] == 1
        assert histogram["buckets"] == [
            {"le": 1.0, "count": 0},
            {"le": 10.0, "count": 1},
            {"le": "+Inf", "count": 0},
        ]

    def test_prometheus_text_is_cumulative_and_escaped(self):
        registry = MetricsRegistry()
        registry.counter(
            'requests_total', help="total\nrequests", labelnames=("route",)
        ).labels(route='/v1/"q"\n').inc()
        registry.histogram("latency_ms", buckets=(1.0, 10.0)).observe(3.0)
        text = registry.render_prometheus()
        assert '# HELP repro_requests_total total\\nrequests' in text
        assert '# TYPE repro_requests_total counter' in text
        assert 'repro_requests_total{route="/v1/\\"q\\"\\n"} 1' in text
        # Cumulative buckets: le="10" and le="+Inf" both include the one observation.
        assert 'repro_latency_ms_bucket{le="1"} 0' in text
        assert 'repro_latency_ms_bucket{le="10"} 1' in text
        assert 'repro_latency_ms_bucket{le="+Inf"} 1' in text
        assert 'repro_latency_ms_sum 3' in text
        assert 'repro_latency_ms_count 1' in text

    def test_default_latency_buckets_are_increasing(self):
        bounds = DEFAULT_LATENCY_BUCKETS_MS
        assert all(b1 < b2 for b1, b2 in zip(bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Exactness under concurrency
# ---------------------------------------------------------------------------


class TestConcurrencyExactness:
    THREADS = 8
    PER_THREAD = 2000

    def _hammer(self, work):
        threads = [threading.Thread(target=work) for _ in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    def test_counter_increments_are_not_lost(self):
        counter = MetricsRegistry().counter("hits_total")
        self._hammer(lambda: [counter.inc() for _ in range(self.PER_THREAD)])
        assert counter.value == self.THREADS * self.PER_THREAD

    def test_histogram_invariant_holds_under_load(self):
        histogram = MetricsRegistry().histogram("latency_ms", buckets=(1.0, 5.0, 25.0))
        values = [0.5, 3.0, 20.0, 100.0]

        def work():
            for i in range(self.PER_THREAD):
                histogram.observe(values[i % len(values)])

        self._hammer(work)
        sample = histogram._solo().sample()
        assert sample["count"] == self.THREADS * self.PER_THREAD
        assert sum(bucket["count"] for bucket in sample["buckets"]) == sample["count"]


# ---------------------------------------------------------------------------
# GET /metrics over a live server
# ---------------------------------------------------------------------------


def _gated_manager():
    """A manager whose registry includes a 'gate' solver that parks until released."""
    started = threading.Event()
    release = threading.Event()

    def gate_solve(request, session):
        started.set()
        assert release.wait(timeout=30), "test deadlock: gate never released"
        return BeliefResult(value=1.0, method="gate")

    registry = build_default_registry()
    registry.register(Solver(key="gate", solve=gate_solve, supports=lambda request, kb: True))
    manager = SessionManager(max_inflight=8, solver_registry=registry)
    return manager, started, release


class TestMetricsEndpoint:
    @pytest.fixture()
    def server(self):
        manager, started, release = _gated_manager()
        with serve_in_background(manager) as running:
            running.gate_started = started
            running.gate_release = release
            yield running

    @pytest.fixture()
    def client(self, server):
        return Client(server.url)

    def _scrape(self, client, *, until=None):
        # Route counters land in the handler's ``finally`` just after the
        # response flushes, so an immediate scrape can race the recording of
        # the request that triggered it; retry briefly when asked to wait
        # for a specific row.
        deadline = time.monotonic() + 10.0
        while True:
            metrics = client.call("GET", "/metrics")["metrics"]
            if until is None or until(metrics) or time.monotonic() > deadline:
                return metrics

    def test_json_scrape_reports_route_and_session_families(self, client):
        session_id = client.open_session(HEP_KB)
        client.query(session_id, "Hep(Eric)")

        def query_rows(metrics):
            return [
                row
                for row in metrics.get("repro_http_responses_total", {}).get("values", ())
                if row["labels"]
                == {"method": "POST", "route": "/v1/sessions/{id}/query", "status": "200"}
            ]

        metrics = self._scrape(client, until=lambda m: bool(query_rows(m)))
        for name in (
            "repro_http_responses_total",
            "repro_http_request_latency_ms",
            "repro_manager_session_opens_total",
            "repro_manager_live_sessions",
            "repro_session_requests_total",
            "repro_session_submit_latency_ms",
        ):
            assert name in metrics, f"missing family {name}"
        rows = query_rows(metrics)
        assert rows and rows[0]["value"] >= 1

    def test_prometheus_scrape_formats(self, server, client):
        client.open_session(HEP_KB)
        self._scrape(client, until=lambda m: "repro_http_responses_total" in m)
        request = urllib.request.Request(f"{server.url}/metrics?format=prometheus")
        with urllib.request.urlopen(request) as response:
            assert response.headers["Content-Type"].startswith("text/plain; version=0.0.4")
            text = response.read().decode("utf-8")
        assert "# TYPE repro_http_responses_total counter" in text
        # The Accept header selects the same rendering.
        request = urllib.request.Request(f"{server.url}/metrics", headers={"Accept": "text/plain"})
        with urllib.request.urlopen(request) as response:
            assert "# TYPE" in response.read().decode("utf-8")

    def test_unknown_format_is_a_clean_400(self, client):
        from repro.server import ServerError

        with pytest.raises(ServerError) as excinfo:
            client.call("GET", "/metrics?format=xml")
        assert excinfo.value.status == 400
        assert excinfo.value.code == "bad-request"

    def test_counters_are_monotonic_under_concurrent_load(self, client):
        session_id = client.open_session(HEP_KB)
        stop = threading.Event()

        def load():
            while not stop.is_set():
                client.query(session_id, "Hep(Eric)")

        workers = [threading.Thread(target=load) for _ in range(3)]
        for worker in workers:
            worker.start()
        try:
            previous = {}
            for _ in range(10):
                # The first scrape can beat the recording of open_session's
                # route row; wait for the histogram family to exist.
                metrics = self._scrape(client, until=lambda m: "repro_http_request_latency_ms" in m)
                histogram = metrics["repro_http_request_latency_ms"]["values"]
                for row in histogram:
                    assert sum(b["count"] for b in row["buckets"]) == row["count"]
                for family_name in ("repro_http_responses_total", "repro_session_requests_total"):
                    for row in metrics[family_name]["values"]:
                        key = (family_name, tuple(sorted(row["labels"].items())))
                        assert row["value"] >= previous.get(key, 0)
                        previous[key] = row["value"]
        finally:
            stop.set()
            for worker in workers:
                worker.join(timeout=30)

    def test_scrape_never_blocks_an_inflight_query(self, server, client):
        session_id = client.open_session(HEP_KB)
        worker = threading.Thread(
            target=lambda: client.query(
                session_id, QueryRequest(query="Hep(Eric)", method="gate").to_dict()
            )
        )
        worker.start()
        assert server.gate_started.wait(timeout=30)
        try:
            # The query is parked inside its solver; the scrape still answers.
            metrics = self._scrape(client)
            assert metrics["repro_manager_inflight_requests"]["values"][0]["value"] >= 1
        finally:
            server.gate_release.set()
            worker.join(timeout=30)
