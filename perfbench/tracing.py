"""In-memory spans around the public functions of each layer.

A span is ``(name, start_ns, end_ns, span_id, parent_id, keys, attrs)``.
Times come from ``time.monotonic_ns`` (``CLOCK_MONOTONIC``, shared by every
process on the host), so client-side and server-side spans share one
timeline.  The parent is the span open in the calling context when the
wrapped function started (a ``contextvars`` variable, so threads do not mix).
``keys`` holds the request ids a span answered: the ``submit`` wrapper adds
its request id to the enclosing ``server.handle`` span, and the load
generator labels its client call spans with the ids it sent, which is how a
client call joins the server's spans.

:func:`install_server_wrappers` patches each name where the engine looks it
up (``repro.core.engine.direct_inference``, ...), so no program file changes.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import json
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

Span = Tuple[str, int, int, int, int, List[str], Dict[str, Any]]


class _Frame:
    __slots__ = ("span_id", "parent", "keys", "attrs")

    def __init__(self, span_id: int, parent: Optional["_Frame"]):
        self.span_id = span_id
        self.parent = parent
        self.keys: List[str] = []
        self.attrs: Dict[str, Any] = {}

    @property
    def parent_id(self) -> int:
        return self.parent.span_id if self.parent is not None else 0


class Recorder:
    """Collects finished spans; ``open_span``/``close_span`` nest via a contextvar."""

    def __init__(self, id_offset: int = 0):
        self.spans: List[Span] = []
        self._ids = itertools.count(id_offset + 1)
        self._current: contextvars.ContextVar[Optional[_Frame]] = contextvars.ContextVar(
            "perfbench_span", default=None
        )

    def open_span(self) -> Tuple[_Frame, contextvars.Token]:
        frame = _Frame(next(self._ids), self._current.get())
        return frame, self._current.set(frame)

    def close_span(self, name: str, frame: _Frame, token: contextvars.Token, start: int) -> None:
        end = time.monotonic_ns()
        self._current.reset(token)
        self.spans.append((name, start, end, frame.span_id, frame.parent_id, frame.keys, frame.attrs))

    def wrap(self, name: str, function: Callable, on_result: Optional[Callable] = None) -> Callable:
        """``function`` recorded as a span; ``on_result(frame, result, args)`` may tag it."""

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame, token = self.open_span()
            start = time.monotonic_ns()
            try:
                result = function(*args, **kwargs)
                if on_result is not None:
                    on_result(frame, result, args)
                return result
            except BaseException as error:
                frame.attrs["error"] = type(error).__name__
                raise
            finally:
                self.close_span(name, frame, token, start)

        return wrapper

    def wrap_generator(self, name: str, function: Callable) -> Callable:
        """A generator recorded from creation to exhaustion.

        The span does not become the current span: the generator's body runs
        interleaved with its consumer, which must not be parented under it.
        """

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            frame = _Frame(next(self._ids), self._current.get())
            start = time.monotonic_ns()
            try:
                yield from function(*args, **kwargs)
            finally:
                self.spans.append((name, start, time.monotonic_ns(), frame.span_id, frame.parent_id, [], {}))

        return wrapper

    def wrap_enter(self, name: str, function: Callable) -> Callable:
        """A context-manager factory whose ``__enter__`` (the wait) is a span."""
        recorder = self

        class _TimedEnter:
            def __init__(self, manager):
                self._manager = manager

            def __enter__(self):
                frame, token = recorder.open_span()
                start = time.monotonic_ns()
                try:
                    return self._manager.__enter__()
                finally:
                    recorder.close_span(name, frame, token, start)

            def __exit__(self, *exc_info):
                return self._manager.__exit__(*exc_info)

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return _TimedEnter(function(*args, **kwargs))

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(list(self.spans), handle)


def _wrap_classmethod(recorder: Recorder, owner: type, attribute: str, name: str) -> None:
    function = owner.__dict__[attribute].__func__
    setattr(owner, attribute, classmethod(recorder.wrap(name, function)))


# engine global -> (span name, the BeliefResult.method the theorem serves)
ANALYTIC_THEOREMS = {
    "direct_inference": ("core.direct_inference", "direct-inference"),
    "specificity_inference": ("core.specificity", "specificity"),
    "strength_inference": ("core.strength", "strength"),
    "combination_inference": ("core.combination", "combination"),
}


def install_client_wrappers(recorder: Recorder) -> None:
    """Client-side codec spans (response decoding in ``repro.server.client``)."""
    import repro.server.client as client_module
    from repro.service.messages import BeliefResponse

    client_module.response_from_dict = recorder.wrap("service.codec", client_module.response_from_dict)
    _wrap_classmethod(recorder, BeliefResponse, "from_dict", "service.codec")


def install_server_wrappers(recorder: Recorder) -> None:
    """Wrap every layer boundary the default ``auto`` serving path crosses."""
    import repro.core.engine as engine
    import repro.logic.parser as parser
    import repro.maxent.beliefs as beliefs
    import repro.worlds.limits as limits
    from repro.server.app import BeliefRequestHandler
    from repro.server.manager import SessionManager
    from repro.service.messages import BeliefResponse, QueryRequest
    from repro.service.session import BeliefSession
    from repro.worlds.counting import BruteForceCounter, UnaryWorldCounter, _DecomposingCounter

    # server
    BeliefRequestHandler._dispatch = recorder.wrap("server.handle", BeliefRequestHandler._dispatch)
    SessionManager.admit = recorder.wrap_enter("server.admit", SessionManager.admit)
    SessionManager.lease = recorder.wrap_enter("server.admit", SessionManager.lease)
    SessionManager.open = recorder.wrap("server.open", SessionManager.open)

    # service: a submit labels itself and its HTTP handler with its request id
    def answered(frame, response, args):
        frame.keys.append(response.request_id)
        frame.attrs["method"] = response.result.method
        if frame.parent is not None:
            frame.parent.keys.append(response.request_id)

    BeliefSession.submit = recorder.wrap("service.submit", BeliefSession.submit, on_result=answered)
    _wrap_classmethod(recorder, QueryRequest, "from_dict", "service.codec")
    BeliefResponse.to_dict = recorder.wrap("service.codec", BeliefResponse.to_dict)

    # logic: every repro module that bound the parser's `parse` by name
    original_parse = parser.parse
    traced_parse = recorder.wrap("logic.parse", original_parse)
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and getattr(module, "parse", None) is original_parse:
            module.parse = traced_parse

    # core: the engine's dispatch looks each theorem up in its own globals
    engine.independence_inference = recorder.wrap("core.independence", engine.independence_inference)

    def mark_hit(frame, result, args):
        frame.attrs["hit"] = result is not None

    for attribute, (name, _) in ANALYTIC_THEOREMS.items():
        setattr(engine, attribute, recorder.wrap(name, getattr(engine, attribute), on_result=mark_hit))

    # maxent: a decline is an undefined value here, or a raised
    # UnsupportedFormula / MaxEntInfeasible (recorded as the span's error)
    def mark_decline(frame, belief, args):
        frame.attrs["decline"] = belief.value is None

    engine.degree_of_belief_maxent = recorder.wrap(
        "maxent.belief", engine.degree_of_belief_maxent, on_result=mark_decline
    )
    solved: set = set()

    def mark_repeat(frame, result, args):
        key = hashlib.sha1(repr(args[0]).encode("utf-8")).hexdigest()
        frame.attrs["repeat"] = key in solved
        solved.add(key)

    beliefs.solve = recorder.wrap("maxent.solve", beliefs.solve, on_result=mark_repeat)

    # worlds
    engine.degree_of_belief_by_counting = recorder.wrap("worlds.counting", engine.degree_of_belief_by_counting)
    for counter in (UnaryWorldCounter, BruteForceCounter):
        counter.iter_kb_classes = recorder.wrap_generator("worlds.decompose", counter.iter_kb_classes)
    _DecomposingCounter.evaluate_query = recorder.wrap("worlds.evaluate", _DecomposingCounter.evaluate_query)
    limits.estimate_sequence_limit = recorder.wrap("worlds.limit", limits.estimate_sequence_limit)
