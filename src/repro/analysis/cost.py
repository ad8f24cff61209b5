"""Static cost prediction: enumeration sizes in closed form, no enumeration.

The unary counter's outer loop visits every composition of ``N`` into the
``A = 2^k`` atoms, and for each one every constant placement whose per-atom
block requirement the composition covers; the PR-6 shard cost model weighs a
composition at ``1 + conjuncts x feasible placements``.  All three numbers
have closed forms over the stars-and-bars identity

    #{compositions of N into A parts with a fixed subset S forced positive}
        = C(N - |S| + A - 1, A - 1)            (0 when N < |S|)

so this module predicts, per domain size and *exactly*:

* :func:`composition_count` — the outer enumeration size (matches
  ``UnaryWorldCounter.enumeration_size``);
* :func:`feasible_class_count` — the candidate isomorphism classes, i.e.
  the number of ``(composition, placement)`` pairs passing the counter's
  feasibility check (placements grouped by per-atom block requirement);
* :func:`predicted_shard_cost` — the sum of ``shard_cost_weights``
  (placements grouped by atom-usage mask, the model's occupancy check).

The differential suite (``tests/test_analysis.py``) holds these equal to the
measured enumerator/cost model on every benchmark KB.  Classification
consults the engine's own skip rules
(:func:`~repro.worlds.enumeration.counting_domain_sizes`): a grid point is
``oversized`` exactly when ``RandomWorlds._counting`` would skip it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..core.knowledge_base import KnowledgeBase
from ..logic.syntax import conjuncts
from ..worlds.counting import CACHE_CLASS_LIMIT
from ..worlds.degrees import DEFAULT_DOMAIN_SIZES
from ..worlds.enumeration import (
    BRUTE_FORCE_WORLD_LIMIT,
    UNARY_CLASS_LIMIT,
    counting_domain_sizes,
    world_space_size,
)
from ..worlds.unary import enumerate_placements
from .diagnostics import Diagnostic, diagnostic

# Default per-grid-point budget (in cost-model units: evaluator visits) for
# the W402 warning.  Grid points the engine keeps are bounded by
# UNARY_CLASS_LIMIT classes; the default budget flags only points whose
# predicted work is far beyond a typical warm enumeration.
DEFAULT_COST_BUDGET = 5_000_000

# Grouping placements is itself ~Bell(m) * A^m work for m constants; beyond
# this bound the analyzer reports the engine's upper-bound classification
# only and marks the grid point inexact rather than paying exponential work.
PLACEMENT_GROUP_LIMIT = 200_000

CHEAP = "cheap"
HEAVY = "heavy"
OVERSIZED = "oversized"


@dataclass(frozen=True)
class GridPointCost:
    """Predicted enumeration work at one domain size (tolerance-independent).

    Every count is per ``(N, tau)`` grid point; tolerances partition which
    classes *satisfy* the KB but never change what is enumerated, so one row
    covers every tau in the ladder.  ``exact=True`` means the numbers are
    closed-form equalities with the real enumerator; ``False`` means the
    analyzer refused exponential grouping work and only the classification
    (from the engine's own upper bound) is meaningful.
    """

    domain_size: int
    classification: str  # "cheap" | "heavy" | "oversized"
    exact: bool
    compositions: Optional[int] = None  # outer enumeration size (unary path)
    feasible_classes: Optional[int] = None  # candidate (composition, placement) pairs
    predicted_cost: Optional[int] = None  # sum of the shard cost model's weights
    world_count: Optional[int] = None  # brute-force path: exact world count

    def to_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "domain_size": self.domain_size,
            "classification": self.classification,
            "exact": self.exact,
        }
        for key in ("compositions", "feasible_classes", "predicted_cost", "world_count"):
            value = getattr(self, key)
            if value is not None:
                payload[key] = value
        return payload


def composition_count(num_atoms: int, domain_size: int) -> int:
    """Compositions of ``domain_size`` into ``num_atoms`` parts (the outer loop)."""
    return math.comb(domain_size + num_atoms - 1, num_atoms - 1)


def _positive_subset_count(num_atoms: int, domain_size: int, forced: int) -> int:
    """Compositions with ``forced`` specific parts >= 1 (0 when N is too small)."""
    if domain_size < forced:
        return 0
    return math.comb(domain_size - forced + num_atoms - 1, num_atoms - 1)


def _requirement_groups(constants: Sequence[str], num_atoms: int) -> Dict[Tuple[int, ...], int]:
    """Placements grouped by per-atom block requirement (the feasibility key)."""
    groups: Dict[Tuple[int, ...], int] = {}
    for placement in enumerate_placements(constants, num_atoms):
        requirement = [0] * num_atoms
        for atom in placement.block_atoms:
            requirement[atom] += 1
        key = tuple(requirement)
        groups[key] = groups.get(key, 0) + 1
    return groups


def _mask_groups(constants: Sequence[str], num_atoms: int) -> Dict[int, int]:
    """Placements grouped by atom-usage mask (the shard cost model's key)."""
    groups: Dict[int, int] = {}
    for placement in enumerate_placements(constants, num_atoms):
        mask = 0
        for atom in placement.block_atoms:
            mask |= 1 << atom
        groups[mask] = groups.get(mask, 0) + 1
    return groups


def feasible_class_count(constants: Sequence[str], num_atoms: int, domain_size: int) -> int:
    """Candidate classes at ``N``: feasible ``(composition, placement)`` pairs.

    A placement needs ``r[a]`` blocks in atom ``a``; the compositions
    covering it are those with ``counts[a] >= r[a]``, of which there are
    ``C(N - sum(r) + A - 1, A - 1)``.  Equals
    ``len(list(enumerate_structures(table, constants, N)))`` exactly.
    """
    total = 0
    for requirement, multiplicity in _requirement_groups(constants, num_atoms).items():
        total += multiplicity * _positive_subset_count(num_atoms, domain_size, sum(requirement))
    return total


def predicted_shard_cost(
    kb_formula: Any, constants: Sequence[str], num_atoms: int, domain_size: int
) -> int:
    """Closed-form ``sum(UnaryWorldCounter.shard_cost_weights(kb, N))``.

    The model weighs a composition at ``1 + conjunct_cost * feasible`` where
    a placement counts as feasible when its atom-usage mask is within the
    composition's occupied set — an occupancy check, so the compositions
    covering mask ``m`` are those with its ``popcount(m)`` atoms positive.
    """
    conjunct_cost = max(1, len(conjuncts(kb_formula)))
    total = composition_count(num_atoms, domain_size)
    for mask, multiplicity in _mask_groups(constants, num_atoms).items():
        total += (
            conjunct_cost
            * multiplicity
            * _positive_subset_count(num_atoms, domain_size, bin(mask).count("1"))
        )
    return total


def _placement_enumeration_bound(num_constants: int, num_atoms: int) -> int:
    """Upper bound on the placements the grouping helpers would enumerate."""
    return max(1, max(num_constants, 1) ** num_constants) * (num_atoms**num_constants)


def predict_costs(
    knowledge_base: KnowledgeBase,
    *,
    domain_sizes: Optional[Sequence[int]] = None,
    cost_budget: int = DEFAULT_COST_BUDGET,
    require_counting: bool = False,
) -> Tuple[List[GridPointCost], List[Diagnostic]]:
    """Predict and classify every grid point; warn on budget/limit breaches.

    A grid point is ``oversized`` iff
    :func:`~repro.worlds.enumeration.counting_domain_sizes` drops it, the
    same filter ``RandomWorlds._counting`` applies.  Kept points are
    ``heavy`` when the predicted cost breaches ``cost_budget`` (W402) or the
    candidate class count overflows the decomposition cache
    (``CACHE_CLASS_LIMIT``).
    """
    vocabulary = knowledge_base.vocabulary
    sizes = tuple(domain_sizes) if domain_sizes is not None else DEFAULT_DOMAIN_SIZES
    kept = set(counting_domain_sizes(vocabulary, sizes))
    rows: List[GridPointCost] = []
    findings: List[Diagnostic] = []

    if not vocabulary.is_unary:
        for n in sizes:
            worlds = world_space_size(vocabulary, n)
            if n not in kept:
                rows.append(GridPointCost(n, OVERSIZED, True, world_count=worlds))
                continue
            classification = HEAVY if worlds > cost_budget else CHEAP
            rows.append(GridPointCost(n, classification, True, world_count=worlds))
            if classification == HEAVY:
                findings.append(
                    diagnostic(
                        "W402",
                        f"domain size {n}: {worlds} worlds to enumerate exceeds "
                        f"the cost budget ({cost_budget})",
                        hint="shrink domain_sizes or raise the budget",
                    )
                )
    else:
        constants = tuple(vocabulary.constants)
        num_atoms = 1 << len(vocabulary.unary_predicates)
        groupable = _placement_enumeration_bound(len(constants), num_atoms) <= PLACEMENT_GROUP_LIMIT
        for n in sizes:
            if n not in kept:
                rows.append(
                    GridPointCost(
                        n,
                        OVERSIZED,
                        groupable,
                        compositions=composition_count(num_atoms, n),
                        feasible_classes=(
                            feasible_class_count(constants, num_atoms, n) if groupable else None
                        ),
                    )
                )
                continue
            if not groupable:
                rows.append(GridPointCost(n, CHEAP, False, compositions=composition_count(num_atoms, n)))
                continue
            compositions = composition_count(num_atoms, n)
            feasible = feasible_class_count(constants, num_atoms, n)
            cost = predicted_shard_cost(knowledge_base.formula, constants, num_atoms, n)
            heavy = cost > cost_budget or feasible > CACHE_CLASS_LIMIT
            rows.append(
                GridPointCost(
                    n,
                    HEAVY if heavy else CHEAP,
                    True,
                    compositions=compositions,
                    feasible_classes=feasible,
                    predicted_cost=cost,
                )
            )
            if cost > cost_budget:
                findings.append(
                    diagnostic(
                        "W402",
                        f"domain size {n}: predicted enumeration cost {cost} exceeds "
                        f"the cost budget ({cost_budget})",
                        hint="shrink domain_sizes, drop a unary predicate, or raise the budget",
                    )
                )
            elif feasible > CACHE_CLASS_LIMIT:
                findings.append(
                    diagnostic(
                        "W402",
                        f"domain size {n}: {feasible} candidate classes exceed the "
                        f"decomposition cache limit ({CACHE_CLASS_LIMIT}); every query "
                        f"re-enumerates this grid point",
                        hint="shrink domain_sizes or drop a unary predicate",
                    )
                )

    if rows and all(row.classification == OVERSIZED for row in rows):
        code = "E403" if require_counting else "W403"
        limit = UNARY_CLASS_LIMIT if vocabulary.is_unary else BRUTE_FORCE_WORLD_LIMIT
        findings.append(
            diagnostic(
                code,
                f"every configured domain size {tuple(sizes)} exceeds the engine's "
                f"enumeration limit ({limit}); the exact-counting method will be "
                f"skipped entirely",
                hint="shrink the vocabulary or configure smaller domain_sizes "
                "(answers fall back to maximum entropy / defaults where applicable)",
            )
        )
    return rows, findings
