"""Cross-backend equality suite and tests for the counting executors.

The load-bearing property of the backend abstraction is that ``serial`` and
``processes`` are observationally identical: exact
``Fraction`` counts, class order, and ``CacheInfo`` totals must not depend on
which backend (or how many workers) produced them.  This file also holds the
regression tests for the cache-concurrency fixes this abstraction leans on:
the refcounted in-flight lock, the clear()-vs-in-flight interaction, and the
negative cache for oversized decompositions.  The concurrent-caller tests
cover the remaining source of concurrency: several threads (the HTTP
server's handlers) sharing one serial counter, cache and memo.

Run ``pytest tests/test_worlds_parallel.py --backend processes
--backend-workers 2`` to pin the suite to one backend (CI does this in a
dedicated matrix leg).
"""

from __future__ import annotations

import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from test_worlds_cache import BENCHMARK_KBS, _pick_domain_size

from repro.core import RandomWorlds
from repro.logic.parser import parse
from repro.logic.tolerance import ToleranceVector
from repro.logic.vocabulary import Vocabulary
from repro.workloads import paper_kbs
from repro.worlds.cache import OVERSIZED, CacheKey, WorldCountCache
from repro.worlds.counting import (
    BruteForceCounter,
    UnaryWorldCounter,
    counter_for_work_unit,
    make_counter,
    shard_bounds,
)
from repro.worlds.degrees import counting_curve, degree_of_belief_by_counting
from repro.worlds.parallel import (
    PartialDecomposition,
    ProcessExecutor,
    SerialExecutor,
    WorkUnit,
    compute_shard,
    executor_scope,
    make_executor,
    merge_counts,
    merge_partials,
    resolve_backend,
)

TAU = ToleranceVector.uniform(0.1)

# The shared_process_executor / executor_for fixtures live in conftest.py so
# the metamorphic suite shares this suite's session-wide process pool.


# ---------------------------------------------------------------------------
# Shard machinery
# ---------------------------------------------------------------------------


class TestShardMachinery:
    def test_shard_bounds_partition_the_range_exactly(self):
        for total in (0, 1, 7, 64, 1000):
            for num_shards in (1, 2, 3, 7, 16):
                blocks = [shard_bounds(total, i, num_shards) for i in range(num_shards)]
                covered = [index for start, stop in blocks for index in range(start, stop)]
                assert covered == list(range(total))

    def test_shard_bounds_rejects_bad_indices(self):
        with pytest.raises(ValueError):
            shard_bounds(10, 2, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, -1, 2)
        with pytest.raises(ValueError):
            shard_bounds(10, 0, 0)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_sharded_unary_enumeration_matches_serial_order(self, num_shards):
        kb = paper_kbs.hepatitis_simple()
        counter = UnaryWorldCounter(kb.vocabulary)
        serial = list(counter.iter_kb_classes(kb.formula, 8, TAU))
        sharded = []
        for index in range(num_shards):
            sharded.extend(
                counter.iter_kb_classes(kb.formula, 8, TAU, shard=(index, num_shards))
            )
        assert sharded == serial  # same classes, same weights, same order

    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_sharded_brute_force_enumeration_matches_serial_order(self, num_shards):
        kb = paper_kbs.tall_parent()
        counter = BruteForceCounter(kb.vocabulary)
        serial = list(counter.iter_kb_classes(kb.formula, 2, TAU))
        sharded = []
        for index in range(num_shards):
            sharded.extend(
                counter.iter_kb_classes(kb.formula, 2, TAU, shard=(index, num_shards))
            )
        assert sharded == serial

    def test_work_units_are_picklable_and_computable(self):
        kb = paper_kbs.hepatitis_simple()
        unit = WorkUnit(
            engine="unary",
            vocabulary=kb.vocabulary,
            knowledge_base=kb.formula,
            domain_size=6,
            tolerance=TAU,
            shard_index=0,
            num_shards=2,
        )
        revived = pickle.loads(pickle.dumps(unit))
        partial = compute_shard(revived)
        assert isinstance(partial, PartialDecomposition)
        assert pickle.loads(pickle.dumps(partial)) == partial

    def test_merged_partials_equal_the_serial_decomposition(self):
        kb = paper_kbs.hepatitis_simple()
        counter = UnaryWorldCounter(kb.vocabulary)
        serial = counter.decompose(kb.formula, 8, TAU)
        units = [
            WorkUnit("unary", kb.vocabulary, kb.formula, 8, TAU, (), index, 3)
            for index in range(3)
        ]
        merged = merge_partials([compute_shard(unit) for unit in units])
        assert merged == serial

    def test_merge_rejects_incomplete_or_mixed_shard_sets(self):
        def partial(index, num_shards, domain_size=6):
            return PartialDecomposition(index, num_shards, domain_size, 0, ())

        with pytest.raises(ValueError):
            merge_partials([])
        with pytest.raises(ValueError):
            merge_partials([partial(0, 2)])  # shard 1 missing
        with pytest.raises(ValueError):
            merge_partials([partial(0, 2), partial(1, 3)])  # mixed shard counts
        with pytest.raises(ValueError):
            merge_partials([partial(0, 2), partial(1, 2, domain_size=7)])  # mixed N

    def test_counter_for_work_unit_restores_the_brute_force_limit(self):
        kb = paper_kbs.tall_parent()
        counter = counter_for_work_unit("brute-force", kb.vocabulary, ("limit", 10))
        assert isinstance(counter, BruteForceCounter)
        from repro.worlds.enumeration import EnumerationTooLarge

        with pytest.raises(EnumerationTooLarge):
            list(counter.iter_kb_classes(kb.formula, 3, TAU, shard=(0, 2)))

    def test_counter_for_work_unit_rejects_unknown_engines(self):
        with pytest.raises(ValueError):
            counter_for_work_unit("quantum", paper_kbs.tall_parent().vocabulary, ())


# ---------------------------------------------------------------------------
# Executors
# ---------------------------------------------------------------------------


class TestExecutors:
    def test_make_executor_resolves_names(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        assert isinstance(make_executor("processes", 2), ProcessExecutor)
        assert isinstance(make_executor(None), SerialExecutor)
        existing = SerialExecutor()
        assert make_executor(existing) is existing
        with pytest.raises(ValueError):
            make_executor("gpu")

    def test_resolve_backend_legacy_max_workers(self):
        assert resolve_backend(None, None) == "serial"
        assert resolve_backend(None, 1) == "serial"
        assert resolve_backend("processes", None) == "processes"
        # Bare max_workers > 1 chooses no pool: it is an error naming the
        # explicit spelling.
        with pytest.raises(ValueError, match='backend="processes"'):
            resolve_backend(None, 4)

    def test_executor_scope_closes_owned_pools_only(self):
        with executor_scope("processes", 2) as executor:
            executor._ensure_pool()
            assert executor._pool is not None
        assert executor._pool is None  # owned: closed on exit
        external = ProcessExecutor(2)
        external._ensure_pool()
        with executor_scope(external) as passed_through:
            assert passed_through is external
        assert external._pool is not None  # caller-owned: left running
        external.close()

    def test_serial_executor_never_shards(self):
        executor = SerialExecutor()
        assert executor.shard_count(10_000_000) == 1
        assert not executor.dispatches_shards

    def test_shard_count_scales_with_items_and_workers(self):
        executor = ProcessExecutor(max_workers=2)
        assert executor.shard_count(10) == 1  # too small to be worth dispatching
        assert executor.shard_count(10_000) == 8  # 2 workers * OVERSHARD
        assert 1 <= executor.shard_count(150) <= 2  # bounded by items per shard
        executor.close()

    def test_brute_force_grid_points_are_never_split(self):
        # islice sharding would reconstruct every skipped World, so the
        # executor plans brute-force points as one unit regardless of size.
        kb = paper_kbs.elephant_zookeeper()  # binary predicate: brute force
        counter = BruteForceCounter(kb.vocabulary, limit=None)
        executor = ProcessExecutor(max_workers=4)
        units = executor.plan_units(counter, kb.formula, 3, TAU)
        assert len(units) == 1
        executor.close()

    def test_batch_reuses_a_caller_supplied_process_executor(self):
        kb = paper_kbs.lottery(3)
        queries = ["Winner(C)", "Ticket(C)", "not Winner(C)"]
        shared = ProcessExecutor(max_workers=2)
        engine = RandomWorlds(domain_sizes=(6, 8), backend=shared)
        expected = RandomWorlds(domain_sizes=(6, 8)).degree_of_belief_batch(queries, kb)
        batch = engine.degree_of_belief_batch(queries, kb)
        assert [r.value for r in batch] == [r.value for r in expected]
        assert shared._pool is not None  # the caller's pool ran the shards...
        engine.close()
        assert shared._pool is not None  # ...and survives the engine
        shared.close()

    def test_oversized_waiters_are_released_before_streaming(self):
        """Waiters queued behind the first oversized enumeration must not
        serialise their own enumerations on the in-flight lock once the
        sentinel lands."""
        from repro.worlds.cache import ClassDecomposition

        cache = WorldCountCache()
        key = _key()
        first_computing = threading.Event()
        release_first = threading.Event()
        rendezvous = threading.Barrier(2, timeout=5)
        errors = []

        def first():
            with cache.computing(key) as found:
                assert found is None
                first_computing.set()
                assert release_first.wait(5)
                cache.store_oversized(key)  # learned mid-stream: too big

        def waiter():
            with cache.computing(key) as found:
                assert not isinstance(found, ClassDecomposition)
                try:
                    # both waiters must be "enumerating" at the same time
                    rendezvous.wait()
                except threading.BrokenBarrierError as error:  # pragma: no cover
                    errors.append(error)
                    raise

        t1 = threading.Thread(target=first)
        t1.start()
        assert first_computing.wait(5)
        waiters = [threading.Thread(target=waiter) for _ in range(2)]
        for thread in waiters:
            thread.start()  # both queue on the in-flight lock
        release_first.set()
        t1.join(5)
        for thread in waiters:
            thread.join(10)
        assert not errors, "queued waiters streamed one at a time under the lock"
        assert not cache._inflight

    def test_engine_close_is_idempotent_and_lazy(self):
        engine = RandomWorlds(domain_sizes=(6, 8), backend="processes", max_workers=2)
        engine.close()  # nothing started yet
        with engine:
            result = engine.degree_of_belief("Winner(C)", paper_kbs.lottery(3))
            assert result.value == pytest.approx(1 / 3, abs=1e-3)
        engine.close()

    def test_engine_rejects_unknown_backend(self):
        with pytest.raises(ValueError):
            RandomWorlds(backend="gpu")


# ---------------------------------------------------------------------------
# Cross-backend equality: every benchmark KB x query
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,factory,query_text", BENCHMARK_KBS, ids=[entry[0] for entry in BENCHMARK_KBS]
)
def test_backend_counts_match_serial_reference(
    name, factory, query_text, counting_backend, executor_for
):
    """Counts, Fractions and CacheInfo totals are backend-independent."""
    kb = factory()
    query = parse(query_text)
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    reference = make_counter(vocabulary).count(query, kb.formula, domain_size, TAU)

    executor = executor_for(counting_backend)
    cache = WorldCountCache()
    counter = make_counter(
        vocabulary,
        cache=cache,
        executor=executor if executor.dispatches_shards else None,
    )
    cold = counter.count(query, kb.formula, domain_size, TAU)
    warm = counter.count(query, kb.formula, domain_size, TAU)

    for result in (cold, warm):
        assert result.satisfying_kb == reference.satisfying_kb
        assert result.satisfying_both == reference.satisfying_both
        if reference.is_defined:
            assert isinstance(result.probability, Fraction)
            assert result.probability == reference.probability
    info = cache.cache_info()
    assert (info.misses, info.hits) == (1, 1)  # identical totals on every backend


CONCURRENT_CALLERS = 4


def _run_concurrently(call):
    """Run ``call()`` on CONCURRENT_CALLERS threads released together."""
    barrier = threading.Barrier(CONCURRENT_CALLERS)

    def caller(_index):
        barrier.wait(timeout=30)
        return call()

    with ThreadPoolExecutor(max_workers=CONCURRENT_CALLERS) as pool:
        return list(pool.map(caller, range(CONCURRENT_CALLERS)))


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
@pytest.mark.parametrize(
    "name,factory,query_text", BENCHMARK_KBS, ids=[entry[0] for entry in BENCHMARK_KBS]
)
def test_concurrent_callers_match_serial_reference(name, factory, query_text, memo):
    """Caller threads sharing one serial counter and cache see the serial counts.

    Concurrency now comes only from callers (the HTTP server's handler
    threads), never from the counting backend.  All callers count the same
    query at once: the decomposition in-flight lock lets exactly one of them
    enumerate and the memo's lets exactly one evaluate, so the totals are
    the ones a serial run of the same calls produces.
    """
    kb = factory()
    query = parse(query_text)
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    reference = make_counter(vocabulary).count(query, kb.formula, domain_size, TAU)

    cache = WorldCountCache(memo=memo)
    counter = make_counter(vocabulary, cache=cache)
    results = _run_concurrently(lambda: counter.count(query, kb.formula, domain_size, TAU))

    for result in results:
        assert result.satisfying_kb == reference.satisfying_kb
        assert result.satisfying_both == reference.satisfying_both
        if reference.is_defined:
            assert isinstance(result.probability, Fraction)
            assert result.probability == reference.probability
    info = cache.cache_info()
    if memo:
        assert (info.misses, info.hits) == (1, 0)
        assert (info.memo_misses, info.memo_hits, info.memo_entries) == (1, CONCURRENT_CALLERS - 1, 1)
    else:
        assert (info.misses, info.hits) == (1, CONCURRENT_CALLERS - 1)
        assert (info.memo_misses, info.memo_hits) == (0, 0)


@pytest.mark.parametrize("backend", ["serial", "processes"])
def test_engine_batch_identical_across_backends(backend, backend_workers):
    """The batch API returns identical answers and cache totals per backend."""
    kb = paper_kbs.lottery(3)
    queries = ["Winner(C)", "Ticket(C)", "exists x. Winner(x)", "not Winner(C)"]
    reference_engine = RandomWorlds(domain_sizes=(6, 8), cache=False)
    reference = [reference_engine.degree_of_belief(query, kb) for query in queries]

    with RandomWorlds(domain_sizes=(6, 8), backend=backend, max_workers=backend_workers) as engine:
        batch = engine.degree_of_belief_batch(queries, kb)
        info = engine.cache_info()

    assert [r.value for r in batch] == [r.value for r in reference]
    assert [r.method for r in batch] == [r.method for r in reference]
    assert [r.exists for r in batch] == [r.exists for r in reference]
    # the miss total equals the number of enumerations: one per (N, tau) grid
    # point, no matter the backend or interleaving
    grid_points = 2 * len(tuple(reference_engine.tolerances))
    assert info.misses == grid_points
    assert info.hits == grid_points * (len(queries) - 1)


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
def test_concurrent_engine_batches_match_serial(memo):
    """One engine answering batches from several callers at once.

    Answers equal a cache-less reference, and the cache counters equal those
    of the same engine configuration answering every caller's batch in turn.
    """
    kb = paper_kbs.lottery(3)
    queries = ["Winner(C)", "Ticket(C)", "exists x. Winner(x)", "not Winner(C)"]
    reference_engine = RandomWorlds(domain_sizes=(6, 8), cache=False)
    reference = [reference_engine.degree_of_belief(query, kb) for query in queries]

    serial_engine = RandomWorlds(domain_sizes=(6, 8), memo=memo)
    for _ in range(CONCURRENT_CALLERS):
        serial_engine.degree_of_belief_batch(queries, kb)

    engine = RandomWorlds(domain_sizes=(6, 8), memo=memo)
    batches = _run_concurrently(lambda: engine.degree_of_belief_batch(queries, kb))

    for batch in batches:
        assert [r.value for r in batch] == [r.value for r in reference]
        assert [r.exists for r in batch] == [r.exists for r in reference]
    assert engine.cache_info() == serial_engine.cache_info()


@pytest.mark.parametrize("memo", [True, False], ids=["memo", "memoless"])
def test_concurrent_counting_curves_share_one_cache(memo):
    """Concurrent curves over one cache enumerate each grid point once."""
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    sizes = (6, 8, 10)
    serial_cache = WorldCountCache(memo=memo)
    for _ in range(CONCURRENT_CALLERS):
        serial = counting_curve(query, kb.formula, vocabulary, sizes, TAU, cache=serial_cache)

    cache = WorldCountCache(memo=memo)
    curves = _run_concurrently(
        lambda: counting_curve(query, kb.formula, vocabulary, sizes, TAU, cache=cache)
    )

    assert [curve.probabilities for curve in curves] == [serial.probabilities] * CONCURRENT_CALLERS
    assert cache.cache_info() == serial_cache.cache_info()
    assert cache.cache_info().misses == len(sizes)


def test_counting_curve_backends_agree(executor_for, counting_backend):
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    serial = counting_curve(query, kb.formula, vocabulary, (6, 8, 10), TAU)
    other = counting_curve(
        query,
        kb.formula,
        vocabulary,
        (6, 8, 10),
        TAU,
        backend=executor_for(counting_backend),
    )
    assert other.probabilities == serial.probabilities


def test_degree_of_belief_by_counting_processes_backend(shared_process_executor):
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    serial = degree_of_belief_by_counting(query, kb.formula, vocabulary, domain_sizes=(8, 12, 16))
    parallel = degree_of_belief_by_counting(
        query,
        kb.formula,
        vocabulary,
        domain_sizes=(8, 12, 16),
        backend=shared_process_executor,
    )
    assert parallel.value == serial.value
    assert parallel.exists == serial.exists
    for serial_curve, parallel_curve in zip(serial.curves, parallel.curves):
        assert parallel_curve.probabilities == serial_curve.probabilities


def test_legacy_max_workers_without_backend_raises():
    """Bare max_workers > 1 chooses no pool; the explicit spelling does."""
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric)")
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    with pytest.raises(ValueError, match='backend="processes"'):
        counting_curve(query, kb.formula, vocabulary, (6, 8, 10), TAU, max_workers=2)
    # The explicit spelling matches the serial reference exactly.
    pooled = counting_curve(
        query, kb.formula, vocabulary, (6, 8, 10), TAU, backend="processes", max_workers=2
    )
    serial = counting_curve(query, kb.formula, vocabulary, (6, 8, 10), TAU)
    assert pooled.probabilities == serial.probabilities


# ---------------------------------------------------------------------------
# Evaluation sharding: every benchmark KB, forced shard dispatch, memo on
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name,factory,query_text", BENCHMARK_KBS, ids=[entry[0] for entry in BENCHMARK_KBS]
)
def test_eval_sharding_matches_serial_reference(
    name, factory, query_text, counting_backend, executor_for, monkeypatch
):
    """Sharded warm evaluation + memo reproduce the serial Fractions and counters.

    ``MIN_ITEMS_PER_SHARD`` is forced to 1 so even the small benchmark
    decompositions genuinely split into multiple evaluation work units on the
    process backend (instead of falling back to the inline walk), and the
    memo counters must come out identical on every backend.
    """
    import repro.worlds.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "MIN_ITEMS_PER_SHARD", 1)
    kb = factory()
    query = parse(query_text)
    vocabulary = kb.vocabulary.merge(Vocabulary.from_formulas([query]))
    domain_size = _pick_domain_size(vocabulary)

    reference = make_counter(vocabulary).count(query, kb.formula, domain_size, TAU)

    executor = executor_for(counting_backend)
    cache = WorldCountCache(memo=True)
    counter = make_counter(
        vocabulary,
        cache=cache,
        executor=executor if executor.dispatches_shards else None,
    )
    cold = counter.count(query, kb.formula, domain_size, TAU)
    warm = counter.count(query, kb.formula, domain_size, TAU)  # memo O(1) hit

    for result in (cold, warm):
        assert result.satisfying_kb == reference.satisfying_kb
        assert result.satisfying_both == reference.satisfying_both
        if reference.is_defined:
            assert isinstance(result.probability, Fraction)
            assert result.probability == reference.probability
    info = cache.cache_info()
    # deterministic on every backend: one enumeration, one evaluation, one
    # memo row; the repeat never reaches the decomposition entries at all
    assert (info.misses, info.hits) == (1, 0)
    assert (info.memo_misses, info.memo_hits, info.memo_entries) == (1, 1, 1)


def test_evaluation_units_split_and_merge_exactly(shared_process_executor, monkeypatch):
    """Forced evaluation shards partition the class list and sum to the serial count."""
    import repro.worlds.parallel as parallel_module

    monkeypatch.setattr(parallel_module, "MIN_ITEMS_PER_SHARD", 1)
    kb = paper_kbs.hepatitis_simple()
    query = parse("Hep(Eric) or Jaun(Eric)")
    counter = UnaryWorldCounter(kb.vocabulary, cache=WorldCountCache())
    decomposition = counter.decompose(kb.formula, 8, TAU)
    serial = counter.evaluate_query(decomposition, query, TAU)

    units = shared_process_executor.plan_evaluation_units(counter, decomposition, query, TAU)
    assert len(units) > 1
    assert sum(len(unit.classes) for unit in units) == decomposition.num_classes
    partials = [compute_shard(unit) for unit in units]
    merged = merge_counts(partials)
    assert merged == serial
    # per-shard kb weights partition the decomposition's total exactly
    assert sum(partial.satisfying_kb for partial in partials) == decomposition.kb_total


def test_evaluate_query_shard_blocks_partition_the_walk():
    kb = paper_kbs.hepatitis_simple()
    counter = UnaryWorldCounter(kb.vocabulary, cache=WorldCountCache())
    decomposition = counter.decompose(kb.formula, 8, TAU)
    query = parse("Hep(Eric)")
    full = counter.evaluate_query(decomposition, query, TAU)
    for num_shards in (1, 2, 3, 5):
        blocks = [
            counter.evaluate_query(decomposition, query, TAU, shard=(index, num_shards))
            for index in range(num_shards)
        ]
        assert sum(block.satisfying_kb for block in blocks) == full.satisfying_kb
        assert sum(block.satisfying_both for block in blocks) == full.satisfying_both


def test_merge_counts_rejects_incomplete_or_mixed_shard_sets():
    from repro.worlds.parallel import PartialCount

    def partial(index, num_shards, domain_size=6):
        return PartialCount(index, num_shards, domain_size, 0, 0)

    with pytest.raises(ValueError):
        merge_counts([])
    with pytest.raises(ValueError):
        merge_counts([partial(0, 2)])  # shard 1 missing
    with pytest.raises(ValueError):
        merge_counts([partial(0, 2), partial(1, 3)])  # mixed shard counts
    with pytest.raises(ValueError):
        merge_counts([partial(0, 2), partial(1, 2, domain_size=7)])  # mixed N


def test_evaluation_work_units_are_picklable(shared_process_executor):
    kb = paper_kbs.hepatitis_simple()
    counter = UnaryWorldCounter(kb.vocabulary, cache=WorldCountCache())
    decomposition = counter.decompose(kb.formula, 6, TAU)
    units = shared_process_executor.plan_evaluation_units(
        counter, decomposition, parse("Hep(Eric)"), TAU
    )
    for unit in units:
        revived = pickle.loads(pickle.dumps(unit))
        assert compute_shard(revived) == compute_shard(unit)


def test_engine_batch_memo_counters_identical_across_backends(backend_workers):
    """Memo counters, like the decomposition counters, are backend-independent."""
    kb = paper_kbs.lottery(3)
    queries = ["Winner(C)", "Ticket(C)", "Winner(C)", "not Winner(C)", "Ticket(C)"]
    infos = {}
    for backend in ("serial", "processes"):
        with RandomWorlds(domain_sizes=(6, 8), backend=backend, max_workers=backend_workers) as engine:
            engine.degree_of_belief_batch(queries, kb)
            infos[backend] = engine.cache_info()
    assert infos["serial"] == infos["processes"]
    grid_points = 2 * len(tuple(RandomWorlds(domain_sizes=(6, 8)).tolerances))
    distinct = 3
    info = infos["serial"]
    assert info.memo_misses == distinct * grid_points
    assert info.memo_hits == (len(queries) - distinct) * grid_points


# ---------------------------------------------------------------------------
# In-flight lock refcounting (regression + stress)
# ---------------------------------------------------------------------------


def _key(tag: str = "k") -> CacheKey:
    return CacheKey(engine=tag, vocabulary=(), knowledge_base=None, domain_size=1, tolerance=())


class TestInflightRefcount:
    def test_finisher_does_not_strand_queued_waiters(self):
        """Regression for the computing() pop race.

        Thread A computes and exits *without storing* while thread B is
        queued on the same in-flight lock.  Pre-fix, A popped the lock from
        the table, so a later thread C ``setdefault``-ed a fresh lock and
        enumerated concurrently with B.  Post-fix the entry survives until
        the last waiter leaves: C must queue behind B and, because B stores
        its result, C is served it instead of computing.
        """
        from repro.worlds.cache import ClassDecomposition

        cache = WorldCountCache()
        key = _key()
        a_inside = threading.Event()
        a_release = threading.Event()
        b_inside = threading.Event()
        b_release = threading.Event()
        c_entered = threading.Event()
        outcomes = {}

        def thread_a():
            with cache.computing(key) as found:
                assert found is None
                a_inside.set()
                assert a_release.wait(5)
                # exits without storing (e.g. a failed/oversized enumeration)

        def thread_b():
            with cache.computing(key) as found:
                assert found is None  # A stored nothing, so B computes
                b_inside.set()
                assert b_release.wait(5)
                cache.store(key, ClassDecomposition(1, 1, ()))

        def thread_c():
            with cache.computing(key) as found:
                outcomes["c_found"] = found
                c_entered.set()

        ta = threading.Thread(target=thread_a)
        tb = threading.Thread(target=thread_b)
        ta.start()
        assert a_inside.wait(5)
        tb.start()  # B queues on the in-flight lock behind A
        deadline = threading.Event()
        for _ in range(5000):  # wait until B is registered as a waiter
            if any(entry.waiters == 2 for entry in list(cache._inflight.values())):
                break
            deadline.wait(0.001)
        a_release.set()
        ta.join(5)
        assert b_inside.wait(5)  # B took over the computation
        tc = threading.Thread(target=thread_c)
        tc.start()  # pre-fix: fresh lock, C computes concurrently with B
        if c_entered.wait(0.5):
            # C got in while B was still computing: only legitimate if it was
            # served a value.  Pre-fix it slipped in with found=None.
            assert outcomes["c_found"] is not None
        b_release.set()
        tb.join(5)
        tc.join(5)
        # C must have been served B's stored decomposition, not a None that
        # would have let it re-enumerate concurrently.
        assert outcomes["c_found"] is not None
        assert not cache._inflight  # fully drained

    def test_clear_leaves_inflight_computations_alone(self):
        """Regression: clear() used to wipe _inflight under live computations."""
        cache = WorldCountCache()
        key = _key()
        computing = threading.Event()
        release = threading.Event()
        overlaps = []

        def first():
            with cache.computing(key) as found:
                assert found is None
                computing.set()
                assert release.wait(5)

        def second():
            with cache.computing(key) as found:
                # pre-fix, clear() dropped the in-flight entry so this ran
                # concurrently with first(); post-fix it waits its turn
                overlaps.append(computing.is_set() and not release.is_set())
                assert found is None

        t1 = threading.Thread(target=first)
        t1.start()
        assert computing.wait(5)
        cache.clear()  # must not break the in-flight protocol
        t2 = threading.Thread(target=second)
        t2.start()
        # give t2 a moment: it must be blocked on the in-flight lock
        t2.join(0.2)
        assert t2.is_alive(), "second caller should be queued, not computing"
        release.set()
        t1.join(5)
        t2.join(5)
        assert overlaps == [False]
        assert not cache._inflight

    def test_stress_many_threads_one_enumeration_per_key(self):
        """Stress the refcounted protocol: N threads x M keys x R rounds."""
        from repro.worlds.cache import ClassDecomposition

        cache = WorldCountCache()
        computed = []
        computed_lock = threading.Lock()
        num_threads, num_keys, rounds = 8, 4, 5
        barrier = threading.Barrier(num_threads, timeout=10)

        def worker():
            for round_index in range(rounds):
                barrier.wait()
                for key_index in range(num_keys):
                    key = _key(f"{round_index}:{key_index}")

                    def compute(key_index=key_index):
                        with computed_lock:
                            computed.append(key_index)
                        return ClassDecomposition(1, 1, ())

                    cache.get_or_compute(key, compute)

        threads = [threading.Thread(target=worker) for _ in range(num_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30)
        assert len(computed) == num_keys * rounds  # exactly one enumeration per key
        assert not cache._inflight  # no leaked in-flight entries


# ---------------------------------------------------------------------------
# Oversized negative cache (regression)
# ---------------------------------------------------------------------------


class TestOversizedNegativeCache:
    def test_oversized_queries_stream_concurrently_without_the_lock(self, monkeypatch):
        """Regression: a batch over an oversized key used to serialise.

        Two threads counting an oversized grid point must both be inside the
        enumeration at the same time.  Pre-fix, the second thread queued on
        the per-key in-flight lock for the full duration of the first
        enumeration, so the rendezvous below timed out.
        """
        import repro.worlds.counting as counting_module

        monkeypatch.setattr(counting_module, "CACHE_CLASS_LIMIT", 1)
        kb = paper_kbs.hepatitis_simple()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(kb.vocabulary, cache=cache)
        query = parse("Hep(Eric)")

        # learn that the key is oversized (stores the negative sentinel)
        expected = counter.count(query, kb.formula, 6, TAU)
        assert cache.peek(counter.cache_key(kb.formula, 6, TAU)) is OVERSIZED

        rendezvous = threading.Barrier(2, timeout=5)
        original = counter.iter_kb_classes
        errors = []

        def rendezvous_iter(*args, **kwargs):
            try:
                rendezvous.wait()  # both threads must be enumerating at once
            except threading.BrokenBarrierError as error:  # pragma: no cover
                errors.append(error)
                raise
            return original(*args, **kwargs)

        counter.iter_kb_classes = rendezvous_iter
        results = []

        def run():
            results.append(counter.count(query, kb.formula, 6, TAU))

        threads = [threading.Thread(target=run) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(10)
        assert not errors, "oversized queries serialised on the in-flight lock"
        assert len(results) == 2
        assert all(result == expected for result in results)

    def test_executor_decompose_negative_caches_oversized_keys(
        self, monkeypatch, shared_process_executor
    ):
        import repro.worlds.counting as counting_module

        monkeypatch.setattr(counting_module, "CACHE_CLASS_LIMIT", 1)
        kb = paper_kbs.hepatitis_simple()
        cache = WorldCountCache()
        counter = UnaryWorldCounter(
            kb.vocabulary, cache=cache, executor=shared_process_executor
        )
        serial_reference = UnaryWorldCounter(kb.vocabulary).decompose(kb.formula, 6, TAU)
        first = counter.decompose(kb.formula, 6, TAU)
        assert first == serial_reference
        assert cache.peek(counter.cache_key(kb.formula, 6, TAU)) is OVERSIZED
        second = counter.decompose(kb.formula, 6, TAU)
        assert second == serial_reference


# ---------------------------------------------------------------------------
# Vocabulary fingerprint order-independence (regression)
# ---------------------------------------------------------------------------


class TestVocabularyFingerprint:
    def test_constant_merge_order_does_not_change_the_fingerprint(self):
        from repro.worlds.cache import vocabulary_fingerprint

        first = Vocabulary({"P": 1}, {}, ("B", "A"))
        second = Vocabulary({"P": 1}, {}, ("A", "B"))
        assert vocabulary_fingerprint(first) == vocabulary_fingerprint(second)

    def test_merge_orders_share_cache_entries(self):
        # Regression: equal vocabularies whose constants arrived in different
        # orders used to fingerprint differently and never share entries.
        kb = parse("P(A) or P(B)")
        query = parse("P(A)")
        one_way = Vocabulary({"P": 1}, {}, ("A", "B"))
        other_way = Vocabulary({"P": 1}, {}, ("B", "A"))

        cache = WorldCountCache()
        UnaryWorldCounter(one_way, cache=cache).count(query, kb, 4, TAU)
        UnaryWorldCounter(other_way, cache=cache).count(query, kb, 4, TAU)
        assert (cache.misses, cache.hits) == (1, 1)  # second merge order hit the first's entry
