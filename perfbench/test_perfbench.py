"""The benchmark's own tests: ``python -m pytest perfbench -q`` from the repo root."""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from layers import join_calls, layer_metrics  # noqa: E402
from loadgen import CallRecord, call_ok  # noqa: E402
from repro.core.result import BeliefResult  # noqa: E402
from repro.service.messages import BeliefResponse, ErrorResponse  # noqa: E402
from summary import percentile, self_times, union_length  # noqa: E402
from truth import TruthLedger  # noqa: E402
from workload import WORKLOADS, Call, build, is_malformed  # noqa: E402


@pytest.mark.parametrize("q, needed", [(0.5, 20), (0.9, 100), (0.99, 1000)])
def test_percentile_needs_ten_samples_beyond_it(q, needed):
    assert percentile([float(i) for i in range(needed - 1)], q) is None
    samples = [float(i) for i in range(needed)]
    value = percentile(samples, q)
    assert value is not None
    assert sum(1 for sample in samples if sample > value) == 10


def test_self_time_subtracts_the_union_of_overlapping_children():
    assert union_length([(10, 40), (30, 60), (55, 58)]) == 50
    spans = {1: (0, 100), 2: (10, 40), 3: (30, 60), 4: (90, 120), 5: (35, 38)}
    parents = {2: 1, 3: 1, 4: 1, 5: 3}
    selfs = self_times(spans, parents)
    # Children cover [10, 60] and, clipped to the parent, [90, 100].
    assert selfs[1] == 100 - 50 - 10
    assert selfs[3] == 30 - 3
    assert selfs[4] == 30


@pytest.mark.parametrize("name", WORKLOADS)
def test_same_seed_same_bytes_and_new_seed_new_kbs(name):
    first, again, other = build(name, 7), build(name, 7), build(name, 8)
    assert first.to_bytes() == again.to_bytes()
    assert first.jobs and first.scenarios
    assert not set(first.scenarios) & set(other.scenarios)


class _Launched(Exception):
    pass


@pytest.mark.parametrize("trace", ["0", "1"])
def test_the_seed_never_reaches_the_server_argv(monkeypatch, trace):
    import loadgen
    import run

    launched = []

    def start(server):
        launched.append(server.argv())
        raise _Launched

    monkeypatch.setattr(loadgen.ServerProcess, "start", start)
    with pytest.raises(_Launched):
        run.main(["--workload", "counting_fill", "--seed", "918273", "--seconds", "1", "--trace", trace])
    (argv,) = launched
    assert argv[-2:] == ["--port", "0"]
    assert not any("918273" in part for part in argv)


def test_replay_sessions_are_opened_before_timing():
    workload = build("replay_warm", 3)
    assert set(workload.prepass) == set(workload.scenarios)
    assert all(call.kind != "open" for job in workload.jobs for call in job)
    assert any(is_malformed(request) for job in workload.jobs for call in job for request in call.requests)
    ids = [request["request_id"] for index in range(2 * len(workload.jobs)) for call in workload.job(index)
           for request in call.requests]
    assert len(ids) == len(set(ids))


def _row(request_id, value, exists=True, method="maxent"):
    result = BeliefResult(value=value, exists=exists, method=method)
    return BeliefResponse(request_id=request_id, result=result, solver="random-worlds", elapsed_ms=1.0)


def test_malformed_rows_must_come_back_as_bad_request():
    requests = ({"query": ")(", "request_id": "a"}, {"query": "P(c)", "request_id": "b"})
    good = CallRecord(Call("stream", "kb", requests), 0, 1)
    good.rows = [ErrorResponse(request_id="a", code="bad-request", message="x"), _row("b", 0.5)]
    assert call_ok(good)
    wrong = CallRecord(Call("stream", "kb", requests), 0, 1)
    wrong.rows = [_row("a", 0.5), _row("b", 0.5)]
    assert not call_ok(wrong)
    failed = CallRecord(Call("query", "kb", requests[1:]), 0, 1, error="500 internal")
    assert not call_ok(failed)


def test_truth_ledger_counts_mismatches_broken_pairs_and_undefined_values():
    workload = build("counting_fill", 1)
    kb = workload.jobs[0][0].kb
    lottery = workload.scenarios[kb]
    winner, loser = lottery.queries[0], lottery.queries[1]
    expected = float(lottery.expectation_for(winner).value)
    ledger = TruthLedger(workload.scenarios)
    ledger.observe(kb, winner, expected, True)
    ledger.observe(kb, loser, 1 - expected + 0.01, True)
    ledger.observe(kb, lottery.queries[2], 1.0, False)
    summary = ledger.summary()
    assert summary["expectation_checked"] == 2
    assert summary["expectation_mismatches"] == 1
    # three exists checks (one fails) and one complement pair (broken)
    assert (summary["law_checks"], summary["law_violations"]) == (4, 2)


def test_layer_metrics_join_client_calls_to_server_spans():
    client = [("server.call", 0, 100, 1, 0, ["r1"], {}), ("service.codec", 90, 95, 2, 1, [], {})]
    server = [
        ("server.handle", 10, 88, 101, 0, ["r1"], {}),
        ("server.admit", 11, 12, 102, 101, [], {}),
        ("service.submit", 20, 80, 103, 101, ["r1"], {"method": "maxent"}),
        ("core.direct_inference", 21, 25, 104, 103, [], {"hit": False}),
        ("maxent.belief", 30, 70, 105, 103, [], {"decline": False}),
        ("maxent.solve", 31, 69, 106, 105, [], {"repeat": True}),
    ]
    metrics = layer_metrics(join_calls(client, server), 1, {"hits": 3, "misses": 1})
    ns = 1e-6
    assert metrics["server.self_ms"] == pytest.approx((100 - 78 - 5 + 78 - 1 - 60) * ns)
    assert metrics["service.submit_ms"] == pytest.approx((60 - 4 - 40) * ns)
    assert metrics["maxent.ms"] == pytest.approx(2 * ns)
    assert metrics["core.analytic_wasted_ms"] == pytest.approx(4 * ns)
    assert metrics["core.analytic_hit_ratio"] == 0.0
    assert metrics["maxent.repeat_share"] == 1.0
    assert metrics["worlds.cache_hit_ratio"] == 0.75


def test_benchmark_json_names_the_workloads_and_metrics_the_run_prints():
    import json

    from layers import PER_LAYER
    from run import END_TO_END

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [workload["name"] for workload in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "perfbench/run.py"] and spec["paths"] == ["perfbench"]
