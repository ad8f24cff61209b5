"""Per-layer metrics from one traced run.

Client call spans (``server.call``) and server spans come from two
processes; a server's ``server.handle`` span joins the client call that sent
one of its request ids and becomes that call's child.  Every time metric is
a sum of self times (see :func:`summary.self_times`) divided by the answered
rows, so the layers of a call add up to its client-side latency:

``server.self_ms``
    client call + HTTP handler self time: transport, HTTP framing, JSON
    text encoding, thread dispatch, and the wait for the interpreter lock
    while the other connection's request computes (every span is wall
    time, so with two connections the layers add up to about twice the
    run's wall time).
``server.admit_wait_ms`` / ``server.open_ms``
    ``SessionManager.admit`` + ``lease`` entry, ``SessionManager.open``.
``service.submit_ms`` / ``service.codec_ms``
    ``BeliefSession.submit`` self time; ``QueryRequest.from_dict``,
    ``BeliefResponse.to_dict`` (server) and response decoding (client).
``logic.*``, ``core.*``, ``maxent.*``, ``worlds.*``
    the parser, the engine's independence split and analytic theorems, the
    maxent route and solver, and exact counting.  ``worlds.decompose`` is the
    KB class enumeration (``iter_kb_classes``), which the default serial
    path streams inline on a cache miss instead of calling ``decompose``.

Ratios and rejections come from the server's ``/metrics`` counters.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional

from summary import self_times
from tracing import ANALYTIC_THEOREMS, Span

_TIME_METRICS = {
    "service.submit_ms": ("service.submit",),
    "service.codec_ms": ("service.codec",),
    "server.admit_wait_ms": ("server.admit",),
    "server.open_ms": ("server.open",),
    "logic.parse_ms": ("logic.parse",),
    "core.independence_ms": ("core.independence",),
    "core.direct_inference_ms": ("core.direct_inference",),
    "core.specificity_ms": ("core.specificity",),
    "core.strength_ms": ("core.strength",),
    "core.combination_ms": ("core.combination",),
    "maxent.ms": ("maxent.belief",),
    "maxent.solve_ms": ("maxent.solve",),
    "worlds.counting_ms": ("worlds.counting",),
    "worlds.decompose_ms": ("worlds.decompose",),
    "worlds.evaluate_ms": ("worlds.evaluate",),
    "worlds.limit_ms": ("worlds.limit",),
}
_COUNT_METRICS = {
    "logic.parse_calls": "logic.parse",
    "maxent.calls": "maxent.belief",
    "maxent.solve_calls": "maxent.solve",
    "worlds.decompose_calls": "worlds.decompose",
    "worlds.evaluate_calls": "worlds.evaluate",
}
_THEOREM_METHODS = {name: method for name, method in ANALYTIC_THEOREMS.values()}
# The exceptions with which the maxent route declines a query.
_MAXENT_DECLINES = ("UnsupportedFormula", "MaxEntInfeasible")

# name -> (unit, better); the order BENCHMARK.json lists them in.
PER_LAYER: Dict[str, tuple] = {
    "server.calls": ("count", "higher"),
    "server.self_ms": ("ms/row", "lower"),
    "server.admit_wait_ms": ("ms/row", "lower"),
    "server.open_ms": ("ms/row", "lower"),
    "server.rejections": ("count", "lower"),
    "service.submit_ms": ("ms/row", "lower"),
    "service.codec_ms": ("ms/row", "lower"),
    "logic.parse_calls": ("count", "lower"),
    "logic.parse_ms": ("ms/row", "lower"),
    "core.independence_ms": ("ms/row", "lower"),
    "core.direct_inference_ms": ("ms/row", "lower"),
    "core.specificity_ms": ("ms/row", "lower"),
    "core.strength_ms": ("ms/row", "lower"),
    "core.combination_ms": ("ms/row", "lower"),
    "core.analytic_hit_ratio": ("ratio", "higher"),
    "core.analytic_wasted_ms": ("ms/row", "lower"),
    "maxent.calls": ("count", "lower"),
    "maxent.ms": ("ms/row", "lower"),
    "maxent.solve_calls": ("count", "lower"),
    "maxent.solve_ms": ("ms/row", "lower"),
    "maxent.declines": ("count", "lower"),
    "maxent.repeat_share": ("ratio", "lower"),
    "worlds.counting_ms": ("ms/row", "lower"),
    "worlds.decompose_calls": ("count", "lower"),
    "worlds.decompose_ms": ("ms/row", "lower"),
    "worlds.evaluate_calls": ("count", "lower"),
    "worlds.evaluate_ms": ("ms/row", "lower"),
    "worlds.limit_ms": ("ms/row", "lower"),
    "worlds.cache_hit_ratio": ("ratio", "higher"),
    "worlds.memo_hit_ratio": ("ratio", "higher"),
    "worlds.compiled_share": ("ratio", "higher"),
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def join_calls(client_spans: Iterable[Span], server_spans: Iterable[Span]) -> List[Span]:
    """Both span lists as one tree: handler spans re-parented under client calls."""
    call_by_key: Dict[str, int] = {}
    merged: List[Span] = []
    for span in client_spans:
        merged.append(span)
        if span[0] == "server.call":
            for key in span[5]:
                call_by_key[key] = span[3]
    for span in server_spans:
        name, start, end, span_id, parent, keys, attrs = span
        if name == "server.handle":
            parent = next((call_by_key[key] for key in keys if key in call_by_key), 0)
        merged.append((name, start, end, span_id, parent, keys, attrs))
    return merged


def layer_metrics(spans: List[Span], answered: int, counters: Mapping[str, float]) -> Dict[str, float]:
    """Every :data:`PER_LAYER` metric from joined spans and ``/metrics`` deltas."""
    by_id = {span[3]: span for span in spans}
    parents = {span[3]: span[4] for span in spans if span[4]}
    selfs = self_times({span[3]: (span[1], span[2]) for span in spans}, parents)
    rows = max(answered, 1)

    def self_ms(names: Iterable[str], where=lambda span: True) -> float:
        wanted = set(names)
        return sum(selfs[span[3]] for span in spans if span[0] in wanted and where(span)) / 1e6 / rows

    def count(name: str, where=lambda span: True) -> int:
        return sum(1 for span in spans if span[0] == name and where(span))

    def served_method(span: Span) -> Optional[str]:
        parent = span[4]
        while parent in by_id:
            ancestor = by_id[parent]
            if ancestor[0] == "service.submit":
                return ancestor[6].get("method")
            parent = ancestor[4]
        return None

    def wasted(span: Span) -> bool:
        # Theorems run inside an independence split feed the served answer.
        method = served_method(span) or ""
        return method != "independence" and _THEOREM_METHODS[span[0]] not in method.split("+")

    joined_handles = {span[3] for span in spans if span[0] == "server.handle" and span[4] in by_id}
    metrics: Dict[str, float] = {
        "server.calls": count("server.call"),
        "server.self_ms": self_ms(("server.call",)) + self_ms(("server.handle",), lambda s: s[3] in joined_handles),
        "server.rejections": counters.get("rejections", 0),
    }
    for metric, names in _TIME_METRICS.items():
        metrics[metric] = self_ms(names)
    for metric, name in _COUNT_METRICS.items():
        metrics[metric] = count(name)
    theorem_spans = [span for span in spans if span[0] in _THEOREM_METHODS]
    metrics["core.analytic_hit_ratio"] = _ratio(
        sum(1 for span in theorem_spans if span[6].get("hit")), len(theorem_spans)
    )
    metrics["core.analytic_wasted_ms"] = self_ms(_THEOREM_METHODS, wasted)
    metrics["maxent.declines"] = count(
        "maxent.belief", lambda span: span[6].get("decline") or span[6].get("error") in _MAXENT_DECLINES
    )
    metrics["maxent.repeat_share"] = _ratio(
        count("maxent.solve", lambda span: bool(span[6].get("repeat"))), metrics["maxent.solve_calls"]
    )
    for metric, (useful, other) in (
        ("worlds.cache_hit_ratio", ("hits", "misses")),
        ("worlds.memo_hit_ratio", ("memo_hits", "memo_misses")),
        ("worlds.compiled_share", ("compiled", "fallback")),
    ):
        metrics[metric] = _ratio(counters.get(useful, 0), counters.get(useful, 0) + counters.get(other, 0))
    return {name: float(metrics[name]) for name in PER_LAYER}


def counter_values(snapshot: Mapping[str, Any]) -> Dict[str, float]:
    """The outside-in counters of one ``GET /metrics`` JSON snapshot."""
    wanted = {
        ("repro_session_cache_events_total", "event"): ("hits", "misses", "memo_hits", "memo_misses"),
        ("repro_session_query_evaluations_total", "mode"): ("compiled", "fallback"),
        ("repro_manager_session_opens_total", "kind"): ("created", "reopened"),
    }
    values: Dict[str, float] = {}
    for (family, label), names in wanted.items():
        for sample in snapshot.get(family, {}).get("values", []):
            name = sample["labels"].get(label)
            if name in names:
                values[name] = values.get(name, 0) + sample["value"]
    for sample in snapshot.get("repro_manager_admission_rejections_total", {}).get("values", []):
        values["rejections"] = values.get("rejections", 0) + sample["value"]
    return values


def counter_deltas(before: Mapping[str, float], after: Mapping[str, float]) -> Dict[str, float]:
    names = ("hits", "misses", "memo_hits", "memo_misses", "compiled", "fallback", "created", "reopened", "rejections")
    return {name: after.get(name, 0) - before.get(name, 0) for name in names}
