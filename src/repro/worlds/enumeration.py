"""Brute-force enumeration of all worlds of a given finite size.

This is the ground-truth engine: it literally constructs every first-order
model of size N over a vocabulary (every interpretation of every predicate,
function and constant) and evaluates formulas with the general model checker.
The number of such worlds explodes as ``2^(N^r)`` per r-ary predicate, so the
enumerator refuses by default to enumerate more than :data:`DEFAULT_LIMIT`
worlds; it exists to validate the combinatorial counters and to handle the
occasional small non-unary example exactly.
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from ..logic.semantics import World
from ..logic.vocabulary import Vocabulary


class EnumerationTooLarge(ValueError):
    """Raised when the requested enumeration would exceed the world limit."""


DEFAULT_LIMIT = 2_000_000

# The exact-counting skip rules.  A non-unary vocabulary is counted only at
# domain sizes with at most BRUTE_FORCE_WORLD_LIMIT worlds; a unary one only
# where the unary counter visits at most UNARY_CLASS_LIMIT isomorphism classes
# per (N, tau) pair, so a many-predicate vocabulary degrades gracefully
# instead of hanging.
BRUTE_FORCE_WORLD_LIMIT = 300_000
UNARY_CLASS_LIMIT = 250_000


def world_space_size(vocabulary: Vocabulary, domain_size: int) -> int:
    """The exact number of worlds of the given size over the vocabulary."""
    total = 1
    for arity in vocabulary.predicates.values():
        total *= 2 ** (domain_size**arity)
    for arity in vocabulary.functions.values():
        total *= domain_size ** (domain_size**arity)
    total *= domain_size ** len(vocabulary.constants)
    return total


def _unary_class_count(vocabulary: Vocabulary, domain_size: int) -> int:
    """Upper bound on the isomorphism classes the unary counter visits for one (N, tau) pair.

    The method is exponential in the number of unary predicates, as the
    paper notes in Section 7.4.
    """
    num_atoms = 1 << len(vocabulary.unary_predicates)
    compositions = math.comb(domain_size + num_atoms - 1, num_atoms - 1)
    num_constants = len(vocabulary.constants)
    # Placements grow like Bell(m) * A^m; for the small m used in practice the
    # simple bound m^m * A^m is adequate.
    placements = max(1, (max(num_constants, 1) ** num_constants)) * (num_atoms**num_constants)
    return compositions * placements


def counting_domain_sizes(
    vocabulary: Vocabulary,
    domain_sizes: Iterable[int],
    *,
    unary_limit: int = UNARY_CLASS_LIMIT,
    world_limit: int = BRUTE_FORCE_WORLD_LIMIT,
) -> Tuple[int, ...]:
    """The domain sizes, in the given order, at which exact counting may run.

    This is the single owner of the counting skip rules: a unary vocabulary
    keeps the sizes whose class-count bound is at most ``unary_limit``, any
    other vocabulary the sizes with at most ``world_limit`` worlds.  The
    engine filters its schedule through it, the static cost model classifies
    skipped sizes as oversized through it, and callers with a tighter budget
    pass their own limits.
    """
    if vocabulary.is_unary:
        return tuple(n for n in domain_sizes if _unary_class_count(vocabulary, n) <= unary_limit)
    return tuple(n for n in domain_sizes if world_space_size(vocabulary, n) <= world_limit)


def enumerate_worlds(
    vocabulary: Vocabulary,
    domain_size: int,
    limit: Optional[int] = DEFAULT_LIMIT,
    fixed_constants: Mapping[str, int] | None = None,
) -> Iterator[World]:
    """Yield every world of size ``domain_size`` over ``vocabulary``.

    ``fixed_constants`` pins some constant denotations (useful to exploit
    symmetry externally); the remaining constants range over the whole domain.
    ``limit=None`` disables the size guard.
    """
    if limit is not None:
        size = world_space_size(vocabulary, domain_size)
        if fixed_constants:
            size //= domain_size ** len(fixed_constants)
        if size > limit:
            raise EnumerationTooLarge(
                f"{size} worlds of size {domain_size} would be enumerated (limit {limit}); "
                "use the unary counting engine or a smaller domain"
            )

    domain = range(domain_size)
    predicate_names = sorted(vocabulary.predicates)
    function_names = sorted(vocabulary.functions)
    fixed_constants = dict(fixed_constants or {})
    free_constants = [name for name in vocabulary.constants if name not in fixed_constants]

    predicate_spaces = []
    for name in predicate_names:
        arity = vocabulary.predicates[name]
        tuples = list(itertools.product(domain, repeat=arity))
        predicate_spaces.append((name, tuples))

    function_spaces = []
    for name in function_names:
        arity = vocabulary.functions[name]
        arg_tuples = list(itertools.product(domain, repeat=arity))
        function_spaces.append((name, arg_tuples))

    def predicate_interpretations() -> Iterator[Dict[str, frozenset]]:
        choices = []
        for name, tuples in predicate_spaces:
            subsets = _all_subsets(tuples)
            choices.append([(name, subset) for subset in subsets])
        for combination in itertools.product(*choices) if choices else [()]:
            yield dict(combination)

    def function_interpretations() -> Iterator[Dict[str, Dict[Tuple[int, ...], int]]]:
        choices = []
        for name, arg_tuples in function_spaces:
            tables = []
            for values in itertools.product(domain, repeat=len(arg_tuples)):
                tables.append((name, dict(zip(arg_tuples, values))))
            choices.append(tables)
        for combination in itertools.product(*choices) if choices else [()]:
            yield dict(combination)

    def constant_interpretations() -> Iterator[Dict[str, int]]:
        for values in itertools.product(domain, repeat=len(free_constants)):
            interpretation = dict(fixed_constants)
            interpretation.update(zip(free_constants, values))
            yield interpretation

    for relations in predicate_interpretations():
        for functions in function_interpretations():
            for constants in constant_interpretations():
                yield World(
                    domain_size=domain_size,
                    relations=relations,
                    functions=functions,
                    constants=constants,
                )


def _all_subsets(items):
    """All subsets of ``items`` as frozensets (2^len(items) of them)."""
    for size in range(len(items) + 1):
        for combination in itertools.combinations(items, size):
            yield frozenset(combination)
