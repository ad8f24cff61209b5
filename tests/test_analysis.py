"""Differential gates for the pre-flight analyzer.

The analyzer's whole value is that where it claims exactness it is *never*
wrong, so these tests hold its closed forms to the measured subsystems:

* compilability verdicts == what ``compile_query`` actually does, for every
  benchmark KB's query and every KB sentence;
* ``composition_count`` == the counter's ``enumeration_size`` and
  ``feasible_class_count`` == a literal ``enumerate_structures`` census;
* ``predicted_shard_cost`` == ``sum(shard_cost_weights)`` exactly;
* the cheap/heavy/oversized classification == the engine's own skip rules
  at every default grid point;

on all benchmark KBs and (marked ``metamorphic``) on generator-drawn KBs.
The acceptance tests at the bottom pin the strict-mode contract: a
pathological KB is refused in milliseconds with coded diagnostics and zero
world-count cache misses, in-process and over HTTP.
"""

from __future__ import annotations

import json
import urllib.error
import urllib.request

import pytest
from test_worlds_cache import BENCHMARK_KBS

from repro import analysis
from repro.analysis.cli import main as lint_main
from repro.analysis.cost import OVERSIZED, PLACEMENT_GROUP_LIMIT, _placement_enumeration_bound
from repro.logic.parser import parse
from repro.logic.vocabulary import Vocabulary
from repro.server.app import serve_in_background
from repro.service import open_session
from repro.service.session import check_consistency
from repro.worlds.cache import WorldCountCache
from repro.worlds.compile import compile_query
from repro.worlds.counting import InconsistentKnowledgeBase, UnaryWorldCounter
from repro.worlds.enumeration import counting_domain_sizes
from repro.worlds.unary import AtomTable, enumerate_placements, enumerate_structures
from repro.workloads.generators import random_unary_kb

# Candidate grid points for the measured census; per KB, the sizes actually
# measured are those whose literal enumeration stays within _CENSUS_BUDGET
# structures (a 32-atom KB is censused at N=2..3, a 4-atom one up to N=8).
# Every unary benchmark KB must admit at least one measured point.
CANDIDATE_SIZES = (2, 3, 4, 6, 8)
_CENSUS_BUDGET = 300_000


def _unary_cases():
    for name, factory, query in BENCHMARK_KBS:
        kb = factory()
        if kb.vocabulary.is_unary:
            yield pytest.param(kb, query, id=name)


def _all_cases():
    for name, factory, query in BENCHMARK_KBS:
        yield pytest.param(factory(), query, id=name)


# ---------------------------------------------------------------------------
# compilability == compile_query
# ---------------------------------------------------------------------------


class TestCompilabilityDifferential:
    @pytest.mark.parametrize("kb,query", _all_cases())
    def test_verdict_matches_compile_query(self, kb, query):
        """The analyzer's fragment verdict can never disagree with the compiler."""
        formulas = [parse(query), *kb.sentences]
        for formula in formulas:
            verdict = analysis.compilability_verdict(formula, kb)
            joint = kb.vocabulary.merge(Vocabulary.from_formulas([formula]))
            if not joint.is_unary:
                assert not verdict.unary and not verdict.compilable
                continue
            compiled = compile_query(formula, AtomTable.for_vocabulary(joint))
            assert verdict.unary
            assert verdict.compilable == (compiled is not None)
            assert (verdict.reason is None) == verdict.compilable

    def test_exact_fallback_reasons(self):
        kb = next(f() for n, f, _ in BENCHMARK_KBS if n == "hepatitis_simple")
        cases = {
            "%(Hep(x) | Jaun(x); x) ~= 0.8": "ApproxEq",
            "exists x. (Jaun(x) and Hep(x))": None,  # pure quantifier compiles
        }
        for text, reason in cases.items():
            verdict = analysis.compilability_verdict(parse(text), kb)
            if reason is None:
                assert verdict.compilable, verdict
            else:
                assert not verdict.compilable and verdict.reason == reason


# ---------------------------------------------------------------------------
# closed-form counts == measured enumeration
# ---------------------------------------------------------------------------


def _assert_counts_match(kb):
    vocabulary = kb.vocabulary
    table = AtomTable.for_vocabulary(vocabulary)
    constants = tuple(vocabulary.constants)
    num_atoms = table.num_atoms
    counter = UnaryWorldCounter(vocabulary)
    assert _placement_enumeration_bound(len(constants), num_atoms) <= PLACEMENT_GROUP_LIMIT
    placements = sum(1 for _ in enumerate_placements(constants, num_atoms))
    sizes = [
        n
        for n in CANDIDATE_SIZES
        if analysis.composition_count(num_atoms, n) * (placements + 1) <= _CENSUS_BUDGET
    ]
    assert sizes, f"no measurable grid point for {num_atoms} atoms, {placements} placements"
    for n in sizes:
        assert analysis.composition_count(num_atoms, n) == counter.enumeration_size(n)
        census = sum(1 for _ in enumerate_structures(table, constants, n))
        assert analysis.feasible_class_count(constants, num_atoms, n) == census
        weights = counter.shard_cost_weights(kb.formula, n)
        assert analysis.predicted_shard_cost(kb.formula, constants, num_atoms, n) == sum(weights)


class TestCostDifferential:
    @pytest.mark.parametrize("kb,query", _unary_cases())
    def test_counts_match_enumeration(self, kb, query):
        """compositions / feasible classes / shard cost: closed form == census."""
        _assert_counts_match(kb)

    @pytest.mark.parametrize("kb,query", _all_cases())
    def test_oversized_matches_engine_skip_rule(self, kb, query):
        """A grid point is 'oversized' exactly when the engine would skip it."""
        rows, _ = analysis.predict_costs(kb)
        kept = counting_domain_sizes(kb.vocabulary, [row.domain_size for row in rows])
        for row in rows:
            skipped = row.domain_size not in kept
            assert (row.classification == OVERSIZED) == skipped

    def test_exact_rows_carry_counts(self):
        kb = next(f() for n, f, _ in BENCHMARK_KBS if n == "tweety_fly")
        rows, _ = analysis.predict_costs(kb, domain_sizes=(8,))
        (row,) = rows
        assert row.exact and row.classification == "cheap"
        assert row.compositions == 6435 and row.feasible_classes and row.predicted_cost

    @pytest.mark.metamorphic
    @pytest.mark.parametrize("seed", range(6))
    def test_generator_kbs_counts_match(self, seed):
        """Generator-drawn KBs obey the same closed-form identities."""
        kb = random_unary_kb(num_predicates=2 + seed % 3, num_statistics=1 + seed % 3, seed=seed)
        _assert_counts_match(kb)


# ---------------------------------------------------------------------------
# well-formedness diagnostics
# ---------------------------------------------------------------------------


class TestWellformedness:
    def test_empty_interval_is_e204_with_span(self):
        report = analysis.analyze(
            "Jaun(Eric)\n%(Hep(x) | Jaun(x); x) <= 0.2\n%(Hep(x) | Jaun(x); x) >= 0.8"
        )
        (finding,) = report.errors
        assert finding.code == "E204" and finding.span.line == 2

    def test_out_of_range_is_e205(self):
        report = analysis.analyze("%(Hep(x); x) >= 2")
        assert "E205" in [d.code for d in report.errors]

    def test_contradictory_facts_are_e206(self):
        report = analysis.analyze("Bird(Tweety)\nnot Bird(Tweety)")
        assert [d.code for d in report.errors] == ["E206"]

    def test_nonpositive_tolerance_index_is_e207(self):
        report = analysis.analyze("%(Hep(x); x) ~=[0] 0.5")
        assert "E207" in [d.code for d in report.errors]

    def test_parse_error_is_e100_with_real_location(self):
        report = analysis.analyze("Bird(Tweety)\nBird(Tweety")
        (finding,) = report.errors
        assert finding.code == "E100" and finding.span.line == 2

    def test_declared_vocabulary_flags_e101_and_unused_w501(self):
        declared = Vocabulary({"Bird": 1, "Ghost": 1}, {}, ("Tweety",))
        report = analysis.analyze(
            "Bird(Tweety)\nFlys(Tweety)",
            options=analysis.AnalysisOptions(declared_vocabulary=declared),
        )
        codes = [d.code for d in report.diagnostics]
        assert "E101" in codes  # Flys undeclared
        assert "W501" in codes  # Ghost never used

    def test_query_symbols_outside_kb_are_errors(self):
        report = analysis.analyze("Bird(Tweety)", queries=["Flys(Tweety)"])
        assert [d.code for d in report.errors] == ["E101"]

    def test_consistency_diagnostics_subsume_check_consistency(self):
        """Every KB the legacy gate rejects gets an error diagnostic, and
        every benchmark KB it accepts is diagnostic-error-free."""
        for kb, _ in (p.values for p in _all_cases()):
            try:
                check_consistency(kb)
            except InconsistentKnowledgeBase:
                assert any(d.is_error for d in analysis.consistency_diagnostics(kb))
            else:
                assert not analysis.consistency_diagnostics(kb)


# ---------------------------------------------------------------------------
# session + HTTP wiring
# ---------------------------------------------------------------------------

PATHOLOGICAL_KB = (
    # empty-interval statistic + five predicates (every default grid point
    # oversized) + a contradiction; strict open must refuse it without
    # enumerating anything.
    "%(Hep(x) | Jaun(x); x) <= 0.2",
    "%(Hep(x) | Jaun(x); x) >= 0.8",
    "%(A(x) | B(x) and C(x); x) ~= 0.5",
    "Jaun(Eric)",
    "not Jaun(Eric)",
)


class TestSessionIntegration:
    def test_strict_open_rejects_fast_with_cold_cache(self):
        from repro.core.knowledge_base import KnowledgeBase

        cache = WorldCountCache()
        kb = KnowledgeBase.from_strings(*PATHOLOGICAL_KB)
        with pytest.raises(analysis.AnalysisError) as excinfo:
            open_session(kb, analyze="strict", cache=cache)
        report = excinfo.value.report
        codes = {d.code for d in report.errors}
        assert {"E204", "E206"} <= codes
        assert report.elapsed_ms < 50
        assert cache.cache_info().misses == 0 and cache.cache_info().hits == 0

    def test_strict_query_rejection_and_warn_metadata(self):
        with open_session("Jaun(Eric)", analyze="strict") as session:
            assert session.analysis is not None and not session.analysis.has_errors
            with pytest.raises(analysis.AnalysisError, match="E101"):
                session.submit("Hep(Eric)")
        with open_session("Jaun(Eric)", analyze="warn") as session:
            response = session.submit("%(Jaun(x); x) ~= 0.5")
            (note,) = response.metadata["analysis"]
            assert note["code"] == "W301" and "ApproxEq" in note["message"]
            clean = session.submit("Jaun(Eric)")
            assert not (clean.metadata or {}).get("analysis")

    def test_off_mode_keeps_legacy_behaviour(self):
        with open_session("Jaun(Eric)") as session:
            assert session.analyze_mode == "off" and session.analysis is None
            assert not session.submit("Hep(Eric)").metadata

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="analyze"):
            open_session("Jaun(Eric)", analyze="loud")


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestHTTPAnalyze:
    def test_analyze_route_and_strict_open(self):
        with serve_in_background() as server:
            status, body = _post(
                server.url + "/v1/analyze",
                {
                    "kb": "Jaun(Eric)\n%(Hep(x) | Jaun(x); x) ~=[1] 0.8",
                    "queries": ["Hep(Eric)"],
                    "options": {"domain_sizes": [4, 8]},
                },
            )
            assert status == 200 and body["errors"] == 0
            assert [v["compilable"] for v in body["compilability"]] == [True]
            assert [c["domain_size"] for c in body["costs"]] == [4, 8]

            status, body = _post(
                server.url + "/v1/analyze",
                {
                    "kb": {
                        "sentences": ["Bird(Tweety)", "Flys(Tweety)"],
                        "vocabulary": {"predicates": {"Bird": 1}, "constants": ["Tweety"]},
                    }
                },
            )
            assert status == 200
            assert "E101" in [d["code"] for d in body["diagnostics"]]

            status, body = _post(
                server.url + "/v1/sessions",
                {"kb": list(PATHOLOGICAL_KB), "analyze": "strict"},
            )
            assert status == 422
            assert body["error"]["code"] == "analysis-failed"
            codes = {d["code"] for d in body["error"]["details"]["diagnostics"]}
            assert {"E204", "E206"} <= codes

            status, body = _post(
                server.url + "/v1/sessions", {"kb": "Bird(Tweety)", "analyze": "loud"}
            )
            assert status == 400


# ---------------------------------------------------------------------------
# repro-lint CLI
# ---------------------------------------------------------------------------


class TestLintCLI:
    def test_kb_file_errors_exit_nonzero(self, tmp_path, capsys):
        kb = tmp_path / "bad.kb"
        kb.write_text("Jaun(Eric)\n%(Hep(x) | Jaun(x); x) <= 0.2\n%(Hep(x) | Jaun(x); x) >= 0.8\n")
        assert lint_main([str(kb)]) == 1
        out = capsys.readouterr().out
        assert f"{kb}:2:1 E204" in out and out.strip().endswith("1 error(s), 0 warning(s)")

    def test_python_file_spans_point_at_literals(self, tmp_path, capsys):
        source = tmp_path / "workload.py"
        source.write_text(
            "from repro.core.knowledge_base import KnowledgeBase\n"
            "KB = KnowledgeBase.from_strings(\n"
            '    "Bird(Tweety)",\n'
            '    "Bird(Tweety",\n'
            ")\n"
        )
        assert lint_main([str(source)]) == 1
        out = capsys.readouterr().out
        assert f"{source}:4:" in out and "E100" in out

    def test_clean_targets_exit_zero(self, capsys):
        assert lint_main(["src/repro/workloads/paper_kbs.py", "--errors-only"]) == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("warning(s)")


class TestReportShape:
    def test_registry_and_dict_round_trip(self):
        assert set(analysis.DIAGNOSTIC_CODES) >= {"E101", "E204", "W301", "W402", "W501"}
        report = analysis.analyze(
            "Jaun(Eric)", queries=["%(Jaun(x); x) ~= 0.5"], options=analysis.AnalysisOptions()
        )
        payload = report.to_dict()
        assert payload["errors"] == 0 and payload["warnings"] >= 1
        assert json.dumps(payload)  # wire-serializable
        line = report.warnings[0].format("kb.txt")
        assert line.startswith("kb.txt:") and " W" in line
