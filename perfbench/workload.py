"""Seeded workloads for the served-path benchmark.

Every workload is drawn from the scenario corpus (``repro.workloads.corpus``)
and is a pure function of its name and seed.  The server only ever receives
what is generated here: knowledge bases in their wire form and query
requests with caller-chosen ids.

A workload is a list of *jobs*.  A client connection runs one job at a time,
call after call, so a job's calls stay in order (a KB is opened before it is
queried) while two connections share the job list.

``replay_warm``
    A mixed-tenant trace from ``repro.traffic.synthesize_trace`` over all
    six families, with zipf popularity, a 6/2/2 mix of query, batch and
    stream calls and malformed stream rows.  :data:`REPLAY_SEGMENTS` traces
    of six KBs each, from consecutive corpus seeds, are merged by arrival
    time, so one run averages over many knob draws instead of hanging on
    the six of one trace.  Sessions are opened before timing and the trace
    repeats when it runs out, so most requests are repeats: the memo
    layers, the codec and the HTTP server carry the load.
``fresh_kbs``
    Distinct taxonomy, diagnosis and near-inconsistent KBs, each opened and
    each of its queries asked once: nothing is shared, so every memo is
    bypassed and the time goes to session opens, the analytic theorems and
    cold maxent solves.
``counting_fill``
    Distinct lottery and two-class competing-grid KBs (two lotteries per
    grid) at the default domain schedule, each query asked twice: the first
    query of a KB enumerates and fills the world-count cache, later distinct
    queries evaluate the cached classes and the second pass hits the memo.

Knobs.  A maxent KB's cold solve cost grows steeply with its knobs and its
statistic values (2 cores, numpy 2.4, scipy 1.17): a three-by-three
diagnosis network takes 7 s per query, three near-inconsistent pairs 20 s,
two pairs or branching 3-4 up to 1.5 s.  Replays recompute maxent on every
repeat, so a handful of such KBs would set a whole run's throughput and the
figures would jump from seed to seed.  The maxent families therefore run at
settings whose cold solve stays near or under 0.3 s; those cost cliffs are
left for a workload of their own.  The seed still draws every statistic
value and individual.

* ``replay_warm`` pins knobs (:data:`REPLAY_PINS`) inside
  ``synthesize_trace``: deep taxonomies at depth 2, because the
  first-ranked deep KB of each segment takes about 40% of the traffic and
  at depth 4 its solve cost (46-111 ms, set by the drawn values) moved the
  median call by half between seeds, where depth 2 (28-47 ms) keeps it
  within a fifth; branching and diagnosis KBs at the family defaults
  (branching 2, two diseases by two symptoms); competing grids at three
  classes, where the two-class membership probe's one-off 3 s brute-force
  count would dominate a run that is about warm repeats.
* ``fresh_kbs`` and ``counting_fill`` cycle each family through a fixed
  knob schedule (:data:`SCHEDULES`) instead of drawing knobs at random:
  a run covers the same mix of depths, bands and ticket counts whatever the
  seed, where random draws of ~40 KBs per family moved throughput by a
  fifth between seeds.  Deep taxonomies stop at depth 4: the solves at
  depth 5-6 (150-225 ms) form a cost cluster of their own just about one
  call in ten wide, which held the p90 on its edge.  Competing grids run
  at two classes, the only setting where a query (the membership probe)
  reaches the counting path.
* ``near_inconsistent`` always has one pair: it still breaks the complement
  law, which the truth checks count.
* Two lotteries per grid in ``counting_fill``: the first query of a KB is
  a cluster of slow calls; with equal numbers of both families the p90
  would sit exactly between the lottery and grid clusters and jump between
  them from seed to seed.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.server.client import kb_payload
from repro.traffic import synth, synthesize_trace
from repro.traffic.synth import MALFORMED_QUERY
from repro.workloads import corpus

WORKLOADS = ("replay_warm", "fresh_kbs", "counting_fill")

# Seeds are spread this far apart so two benchmark seeds never draw
# overlapping corpus seed ranges.
SEED_STRIDE = 100_000

REPLAY_ENGINE = {"domain_sizes": [6, 8]}
# 8 x 6 = 48 pre-opened sessions stay under repro-serve's default
# --max-sessions 64; past it the LRU evicts sessions the trace still uses.
REPLAY_SEGMENTS = 8
REPLAY_SEGMENT_GAP = 1_000
REPLAY_KBS = 6
REPLAY_TENANTS = 2
REPLAY_REQUESTS = 150
FRESH_FAMILIES = ("deep_taxonomy", "branching_taxonomy", "diagnosis_network", "near_inconsistent")
FRESH_KBS = 800
COUNTING_FAMILIES = ("lottery", "competing_grid", "lottery")
COUNTING_KBS = 200
COUNTING_PASSES = 2
_DIAGNOSIS = {"diseases": 2, "symptoms": 2}
REPLAY_PINS = {
    "deep_taxonomy": {"depth": 2},
    "branching_taxonomy": {"branching": 2},
    "diagnosis_network": _DIAGNOSIS,
    "near_inconsistent": {"pairs": 1},
    "competing_grid": {"classes": 3},
}
SCHEDULES = {
    "fresh_kbs": {
        "deep_taxonomy": [{"depth": depth} for depth in range(2, 5)],
        "branching_taxonomy": [{"branching": 2}],
        "diagnosis_network": [_DIAGNOSIS],
        "near_inconsistent": [{"pairs": 1, "band": band} for band in (8, 16, 32, 64, 128, 256, 512)],
    },
    "counting_fill": {
        "lottery": [{"tickets": tickets} for tickets in range(2, 7)],
        "competing_grid": [{"classes": 2}],
    },
}


@dataclass(frozen=True)
class Call:
    """One client call: an ``open`` of a KB, or requests against its session."""

    kind: str  # "open" | "query" | "query_batch" | "stream"
    kb: str  # the scenario fingerprint, which is also the session key
    requests: Tuple[Dict[str, Any], ...] = ()

    def to_dict(self) -> Dict[str, Any]:
        return {"kind": self.kind, "kb": self.kb, "requests": list(self.requests)}


@dataclass
class Workload:
    """Generated inputs: scenarios by fingerprint, the open pre-pass, and jobs.

    ``cycle`` jobs repeat once exhausted (a returning user's trace); their
    request ids then gain a ``~round`` suffix so every request id stays
    unique within a run.
    """

    name: str
    scenarios: Dict[str, corpus.Scenario]
    jobs: List[Tuple[Call, ...]]
    prepass: Tuple[str, ...] = ()
    engine: Optional[Dict[str, Any]] = None
    cycle: bool = False
    payloads: Dict[str, Any] = field(default_factory=dict)

    def job(self, index: int) -> Optional[Tuple[Call, ...]]:
        """Job ``index`` of the run, or ``None`` once a non-cycling list is spent."""
        if index < len(self.jobs):
            return self.jobs[index]
        if not self.cycle:
            return None
        rounds, position = divmod(index, len(self.jobs))
        return tuple(
            Call(
                call.kind,
                call.kb,
                tuple({**request, "request_id": f"{request['request_id']}~{rounds}"} for request in call.requests),
            )
            for call in self.jobs[position]
        )

    def open_payload(self, kb: str) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"kb": self.payloads[kb]}
        if self.engine is not None:
            payload["engine"] = dict(self.engine)
        return payload

    def to_bytes(self) -> bytes:
        """A canonical serialization: equal bytes mean equal server inputs."""
        document = {
            "name": self.name,
            "engine": self.engine,
            "cycle": self.cycle,
            "prepass": list(self.prepass),
            "kbs": {fingerprint: self.payloads[fingerprint] for fingerprint in sorted(self.payloads)},
            "jobs": [[call.to_dict() for call in job] for job in self.jobs],
        }
        return json.dumps(document, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _index(scenarios: Sequence[corpus.Scenario]) -> Dict[str, corpus.Scenario]:
    return {scenario.fingerprint: scenario for scenario in scenarios}


@contextmanager
def _pinned_sample(overrides: Dict[str, Dict[str, int]]) -> Iterator[None]:
    """Make ``synthesize_trace`` draw its KBs with pinned knobs.

    ``synthesize_trace`` takes no knob overrides, so the corpus ``sample``
    it looked up is swapped for one that passes them, in this process only.
    """
    original = synth.sample
    synth.sample = functools.partial(original, knob_overrides=overrides)
    try:
        yield
    finally:
        synth.sample = original


def _replay_warm(seed: int) -> Workload:
    pins = REPLAY_PINS
    scenarios: Dict[str, corpus.Scenario] = {}
    arrivals = []
    for segment in range(REPLAY_SEGMENTS):
        corpus_seed = seed * SEED_STRIDE + segment * REPLAY_SEGMENT_GAP
        with _pinned_sample(pins):
            events = synthesize_trace(
                requests=REPLAY_REQUESTS,
                tenants=REPLAY_TENANTS,
                kbs=REPLAY_KBS,
                seed=corpus_seed,
                oracle=False,
                engine=REPLAY_ENGINE,
            )
        # The same draw synthesize_trace made, kept for the truth checks.
        scenarios.update(_index(corpus.sample(REPLAY_KBS, seed=corpus_seed, knob_overrides=pins)))
        arrivals.extend((event.at_ms, segment, order, event) for order, event in enumerate(events))
    jobs: List[Tuple[Call, ...]] = []
    prepass: List[str] = []
    for _, segment, _, event in sorted(arrivals, key=lambda arrival: arrival[:3]):
        if event.kind == "open":
            prepass.append(event.session)
            continue
        requests = event.payload["requests"] if event.kind != "query" else [event.payload["request"]]
        # Tenant names repeat across segments; the segment keeps ids unique.
        requests = tuple({**request, "request_id": f"s{segment}.{request['request_id']}"} for request in requests)
        jobs.append((Call(event.kind, event.session, requests),))
    return Workload(
        name="replay_warm",
        scenarios=scenarios,
        jobs=jobs,
        prepass=tuple(dict.fromkeys(prepass)),
        engine=dict(REPLAY_ENGINE),
        cycle=True,
        payloads={fingerprint: kb_payload(s.knowledge_base) for fingerprint, s in scenarios.items()},
    )


def _per_kb_jobs(scenarios: Sequence[corpus.Scenario], passes: int, prefix: str) -> List[Tuple[Call, ...]]:
    jobs = []
    for number, scenario in enumerate(scenarios):
        calls = [Call("open", scenario.fingerprint)]
        for round_ in range(passes):
            for slot, query in enumerate(scenario.queries):
                request_id = f"{prefix}-{number}-{round_}-{slot}"
                calls.append(Call("query", scenario.fingerprint, ({"query": query, "request_id": request_id},)))
        jobs.append(tuple(calls))
    return jobs


def _scheduled(name: str, families: Sequence[str], count: int, seed: int) -> List[corpus.Scenario]:
    """``count`` distinct scenarios, families in turn, each cycling its knob schedule."""
    schedule = SCHEDULES[name]
    turns = {family: 0 for family in schedule}
    scenarios: List[corpus.Scenario] = []
    seen = set()
    corpus_seed = seed * SEED_STRIDE
    while len(scenarios) < count:
        family = families[len(scenarios) % len(families)]
        knobs = schedule[family][turns[family] % len(schedule[family])]
        scenario = corpus.build(family, corpus_seed, **knobs)
        corpus_seed += 1
        if scenario.fingerprint in seen:
            continue
        seen.add(scenario.fingerprint)
        turns[family] += 1
        scenarios.append(scenario)
    return scenarios


def _per_kb_workload(name: str, families: Sequence[str], count: int, seed: int, passes: int) -> Workload:
    scenarios = _scheduled(name, families, count, seed)
    return Workload(
        name=name,
        scenarios=_index(scenarios),
        jobs=_per_kb_jobs(scenarios, passes, name),
        payloads={s.fingerprint: kb_payload(s.knowledge_base) for s in scenarios},
    )


_GENERATORS = {
    "replay_warm": _replay_warm,
    "fresh_kbs": lambda seed: _per_kb_workload("fresh_kbs", FRESH_FAMILIES, FRESH_KBS, seed, 1),
    "counting_fill": lambda seed: _per_kb_workload(
        "counting_fill", COUNTING_FAMILIES, COUNTING_KBS, seed, COUNTING_PASSES
    ),
}
def build(name: str, seed: int) -> Workload:
    """The workload ``name`` for ``seed`` (byte-identical for equal arguments)."""
    try:
        generate = _GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}") from None
    if seed < 0:
        raise ValueError("seed must be non-negative")
    return generate(seed)


def is_malformed(request: Dict[str, Any]) -> bool:
    """Whether a request is an injected malformed row (it must answer bad-request)."""
    return request.get("query") == MALFORMED_QUERY
