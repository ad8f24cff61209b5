"""Truth checks on the served answers.

Every answered row is compared with its corpus ``Expectation`` (a theorem's
exact prediction) and the probability laws are checked on what the server
returned:

* an expectation mismatch is a served value further than :data:`TOLERANCE`
  from the expected one (or no value where one is expected);
* a law violation is a φ/¬φ pair of one KB whose served values do not sum
  to 1 within :data:`TOLERANCE`, or a value served with ``exists=False``.

Law checks count distinct answers, not rows: each served (KB, query) is one
exists check and each answered complement pair one sum check, so a replayed
answer is judged once however often it repeats.  The checks record what they
find; they never hide a violation and never stop a run.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple

from repro.workloads.corpus import Scenario

TOLERANCE = 1e-3


def complement_of(query: str) -> str:
    return query[len("not "):] if query.startswith("not ") else f"not {query}"


class TruthLedger:
    """Accumulates expectation and law checks over one run."""

    def __init__(self, scenarios: Mapping[str, Scenario]):
        self._scenarios = scenarios
        self.expectation_checked = 0
        self.expectation_mismatches = 0
        # (kb, query) -> (first served value, exists)
        self._served: Dict[Tuple[str, str], Tuple[Optional[float], bool]] = {}

    def observe(self, kb: str, query: str, value: Optional[float], exists: bool) -> None:
        """Record one answered row."""
        scenario = self._scenarios.get(kb)
        expectation = scenario.expectation_for(query) if scenario is not None else None
        if expectation is not None:
            self.expectation_checked += 1
            if value is None or abs(value - float(expectation.value)) > TOLERANCE:
                self.expectation_mismatches += 1
        self._served.setdefault((kb, query), (value, exists))

    def law_counts(self) -> Tuple[int, int]:
        """``(checks, violations)`` over the distinct answers seen so far."""
        checks = violations = 0
        for (kb, query), (value, exists) in self._served.items():
            if value is None:
                continue
            checks += 1
            if not exists:
                violations += 1
            if query.startswith("not "):
                continue  # each pair is judged once, from its positive side
            other = self._served.get((kb, complement_of(query)))
            if other is None or other[0] is None:
                continue
            checks += 1
            if abs(value + other[0] - 1.0) > TOLERANCE:
                violations += 1
        return checks, violations

    def summary(self) -> Dict[str, Any]:
        checks, violations = self.law_counts()
        return {
            "expectation_checked": self.expectation_checked,
            "expectation_mismatches": self.expectation_mismatches,
            "law_checks": checks,
            "law_violations": violations,
        }
