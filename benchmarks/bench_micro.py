"""Micro-benchmarks of the framework's primitive operations.

These isolate the three phases analysed in Section 4.4 — reference-node
sampling, event-density computation (one h-hop BFS per reference node) and
the measure/z-score computation — so regressions in any phase are visible
independently of the full experiments.
"""

import threading
import time

import numpy as np
import pytest

from repro.core.batch import BatchTescEngine
from repro.core.config import TescConfig
from repro.core.estimators import plain_estimate
from repro.core.tesc import TescTester
from repro.datasets.synthetic_dblp import make_dblp_like
from repro.datasets.synthetic_twitter import make_twitter_like
from repro.graph.mutation import rewire_random_edges
from repro.graph.traversal import BFSEngine
from repro.graph.vicinity import VicinityIndex
from repro.sampling.registry import create_sampler
from repro.stats.fast_kendall import (
    dense_ranks,
    fenwick_weighted_concordance,
    merge_concordance_sum,
    naive_concordance_sum,
    naive_weighted_concordance,
    table_concordance,
)
from repro.streaming import Delta, DeltaBatch, DynamicAttributedGraph

GRAPH = make_twitter_like(num_nodes=20_000, edges_per_node=8, random_state=1)
EVENT_NODES = np.random.default_rng(2).choice(GRAPH.num_nodes, size=5_000, replace=False)
VICINITY_INDEX = VicinityIndex(GRAPH, levels=(1, 2), lazy=True)

# A DBLP-like workload for the batch-vs-loop comparison: 15 keyword pairs
# tested on one graph, the shape of the paper's Tables 1-5 runs.
RANK_DATASET = make_dblp_like(
    num_communities=16, community_size=80, num_positive_pairs=5,
    num_negative_pairs=5, num_background_keywords=10, random_state=13,
)
RANK_PAIRS = (
    list(RANK_DATASET.positive_pairs)
    + list(RANK_DATASET.negative_pairs)
    + [("bg_0", "bg_1"), ("bg_2", "bg_3"), ("bg_4", "bg_5"),
       ("bg_6", "bg_7"), ("bg_8", "bg_9")]
)
RANK_CONFIG = TescConfig(vicinity_level=1, sample_size=300, random_state=17)


@pytest.mark.parametrize("level", [1, 2, 3])
def test_single_bfs(benchmark, level):
    """Figure 10a primitive: one h-hop BFS on a scale-free graph."""
    engine = BFSEngine(GRAPH)
    rng = np.random.default_rng(3)
    sources = rng.choice(GRAPH.num_nodes, size=64)
    counter = {"i": 0}

    def run():
        source = int(sources[counter["i"] % len(sources)])
        counter["i"] += 1
        return engine.vicinity(source, level)

    benchmark(run)


def test_batch_bfs_over_event_nodes(benchmark):
    """Algorithm 1 on a 5k-node event set (the Figure 9 x-axis midpoint)."""
    engine = BFSEngine(GRAPH)
    benchmark(lambda: engine.multi_source_vicinity(EVENT_NODES, 1))


# 600 reference-node sources for the per-node vs grouped BFS comparison (the
# shape of one density pass / vicinity-index fill at paper sample sizes).
BFS_SOURCES = np.random.default_rng(6).choice(GRAPH.num_nodes, size=600, replace=False)


@pytest.mark.parametrize("level", [1, 2])
def test_vicinity_sizes_per_node_loop(benchmark, level):
    """Baseline: one Python-level BFS per source (the pre-grouped hot path)."""

    def run():
        engine = BFSEngine(GRAPH)
        return np.array(
            [engine.vicinity(int(source), level).size for source in BFS_SOURCES]
        )

    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("level", [1, 2])
def test_vicinity_sizes_grouped(benchmark, level):
    """The same sizes through the grouped (vectorised multi-source) BFS."""
    engine = BFSEngine(GRAPH)
    benchmark.pedantic(
        lambda: engine.vicinity_sizes(BFS_SOURCES, level), rounds=3, iterations=1
    )


def test_density_counts_grouped(benchmark):
    """The density-pass primitive: marked counts of 8 events over 600
    reference vicinities in one grouped traversal."""
    engine = BFSEngine(GRAPH)
    indicators = np.random.default_rng(7).random((8, GRAPH.num_nodes)) < 0.05
    benchmark.pedantic(
        lambda: engine.grouped_marked_counts(BFS_SOURCES, 1, indicators),
        rounds=3, iterations=1,
    )


def test_grouped_bfs_beats_per_node_loop():
    """The vectorised multi-source BFS must beat the per-node Python loop on
    the vicinity-size workload (the gap is several-fold; best-of-two timings
    damp scheduler noise on loaded CI runners)."""
    graph = RANK_DATASET.attributed.csr
    sources = np.arange(graph.num_nodes, dtype=np.int64)

    def loop():
        engine = BFSEngine(graph)
        return np.array(
            [engine.vicinity(int(source), 2).size for source in sources]
        )

    def grouped():
        return BFSEngine(graph).vicinity_sizes(sources, 2)

    def best_of_two(func):
        timings = []
        for _ in range(2):
            started = time.perf_counter()
            result = func()
            timings.append(time.perf_counter() - started)
        return result, min(timings)

    loop_sizes, loop_seconds = best_of_two(loop)
    grouped_sizes, grouped_seconds = best_of_two(grouped)
    speedup = loop_seconds / grouped_seconds if grouped_seconds > 0 else float("inf")
    print(
        f"\nper-node loop: {loop_seconds:.3f}s, grouped BFS: {grouped_seconds:.3f}s, "
        f"speedup: {speedup:.1f}x over {sources.size} sources at h=2"
    )
    np.testing.assert_array_equal(loop_sizes, grouped_sizes)
    assert grouped_seconds < loop_seconds


@pytest.mark.parametrize("sample_size", [300, 900])
def test_zscore_computation(benchmark, sample_size):
    """Figure 10b primitive: the measure computation (auto-dispatched kernel)."""
    rng = np.random.default_rng(4)
    densities_a = rng.random(sample_size)
    densities_b = rng.random(sample_size)
    benchmark(lambda: plain_estimate(densities_a, densities_b))


# -- Kendall kernels: naive O(n²) vs merge-sort / Fenwick O(n log n) ----------
#
# Tie-heavy integer-valued vectors (the shape of real density columns) at the
# paper's n=900 and the large-n regimes the fast kernels unlock.  The naive
# kernel is benchmarked only up to n=5000 in the timed sweep — at n=20000 it
# builds multiple 3.2 GB sign matrices and takes ~a minute per call, so the
# 20000-point naive-vs-fast comparison runs exactly once, inside the asserted
# regression case below.

KERNEL_SIZES = (900, 5_000, 20_000)
_KERNEL_RNG = np.random.default_rng(21)
KERNEL_VECTORS = {
    n: (
        _KERNEL_RNG.integers(0, max(2, n // 3), size=n).astype(float),
        _KERNEL_RNG.integers(0, max(2, n // 3), size=n).astype(float),
        _KERNEL_RNG.random(n) * 10.0,
    )
    for n in KERNEL_SIZES
}


@pytest.mark.parametrize("n", [900, 5_000])
def test_kendall_kernel_naive(benchmark, n):
    """Baseline: the O(n²) sign-matrix concordance kernel."""
    x, y, _ = KERNEL_VECTORS[n]
    benchmark.pedantic(
        lambda: naive_concordance_sum(x, y), rounds=2, iterations=1
    )


@pytest.mark.parametrize("n", [900, 5_000, 20_000])
def test_kendall_kernel_fast(benchmark, n):
    """The O(n log n) merge-sort (Knight) concordance kernel."""
    x, y, _ = KERNEL_VECTORS[n]
    benchmark.pedantic(
        lambda: merge_concordance_sum(x, y), rounds=3, iterations=1
    )


# Density-like codes for the contingency-table kernel: densities are ratios
# of small integers (occurrences over vicinity size), so a row holds a few
# dozen distinct values however large n is.  Dense codes and their count K
# are what the pair batcher caches per density row.
_DENSITY_RNG = np.random.default_rng(22)


def _density_like_codes(n):
    sizes = _DENSITY_RNG.integers(1, 12, size=n)
    values = _DENSITY_RNG.integers(0, sizes + 1) / sizes
    codes = dense_ranks(values)
    return codes, int(codes.max()) + 1


DENSITY_CODES = {
    n: (_density_like_codes(n), _density_like_codes(n)) for n in (900, 5_000)
}


@pytest.mark.parametrize("n", [900, 5_000])
def test_kendall_kernel_table(benchmark, n):
    """The O(n + Kx·Ky) contingency-table kernel on tie-heavy, density-like
    codes; it returns the merge kernel's exact ``S``."""
    (x, kx), (y, ky) = DENSITY_CODES[n]
    s, _, _ = benchmark.pedantic(
        lambda: table_concordance(x, y, kx, ky), rounds=3, iterations=1
    )
    assert s == merge_concordance_sum(x, y)


@pytest.mark.parametrize("n", [900, 5_000])
def test_kendall_weighted_kernel_naive(benchmark, n):
    """Baseline: the O(n²) weighted (Eq. 8) concordance kernel."""
    x, y, w = KERNEL_VECTORS[n]
    benchmark.pedantic(
        lambda: naive_weighted_concordance(x, y, w),
        rounds=2, iterations=1,
    )


@pytest.mark.parametrize("n", [900, 5_000, 20_000])
def test_kendall_weighted_kernel_fast(benchmark, n):
    """The O(n log n) Fenwick-tree weighted (Eq. 8) kernel."""
    x, y, w = KERNEL_VECTORS[n]
    benchmark.pedantic(
        lambda: fenwick_weighted_concordance(x, y, w),
        rounds=3, iterations=1,
    )


def test_fast_kernel_beats_naive_at_20k():
    """The PR's kernel acceptance bar, measured directly at n=20000:

    * the merge-sort kernel returns the *same exact integer* S as the naive
      sign-matrix kernel and is >= 5x faster (measured ~1000x+);
    * its peak additional memory is O(n) — a few rank-vector-sized arrays —
      while the naive kernel allocates O(n²) sign matrices (>= n² bytes);
    * the Fenwick weighted kernel matches the naive weighted kernel to
      <= 1e-9 relative and is >= 5x faster at n=5000 (the naive weighted
      kernel at n=20000 would hold ~16 GB of matrices, past CI memory).
    """
    import tracemalloc

    n = 20_000
    x, y, w = KERNEL_VECTORS[n]

    def timed(func):
        started = time.perf_counter()
        result = func()
        return result, time.perf_counter() - started

    def traced_peak(func):
        # Separate untimed run: tracemalloc boxes every allocation, which
        # distorts timings (especially the Fenwick sweep's Python loop).
        tracemalloc.start()
        func()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        return peak

    s_fast, fast_seconds = timed(lambda: merge_concordance_sum(x, y))
    s_naive, naive_seconds = timed(lambda: naive_concordance_sum(x, y))
    speedup = naive_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    fast_peak = traced_peak(lambda: merge_concordance_sum(x, y))
    # The naive memory claim is checked at n=5000 to avoid a second
    # minute-long 9.6 GB naive pass; O(n²) growth is the same either way.
    xw, yw, ww = KERNEL_VECTORS[5_000]
    naive_peak_5k = traced_peak(lambda: naive_concordance_sum(xw, yw))
    print(
        f"\nS kernel at n={n}: naive {naive_seconds:.2f}s, fast "
        f"{fast_seconds * 1e3:.1f}ms (peak {fast_peak / 1e6:.2f} MB), "
        f"speedup {speedup:.0f}x; naive peak at n=5000: "
        f"{naive_peak_5k / 1e6:.0f} MB"
    )
    assert s_fast == s_naive  # exact integer agreement
    assert speedup >= 5.0
    # O(n) vs O(n²): the fast path stays within a few dozen rank-vector-sized
    # arrays even at n=20000, while the naive path materialises n×n sign
    # matrices (>= n² bytes already at n=5000).
    assert fast_peak <= 64 * 8 * n
    assert naive_peak_5k >= 5_000 * 5_000

    (num_fast, den_fast), fast_w_seconds = timed(
        lambda: fenwick_weighted_concordance(xw, yw, ww)
    )
    (num_naive, den_naive), naive_w_seconds = timed(
        lambda: naive_weighted_concordance(xw, yw, ww)
    )
    weighted_speedup = (
        naive_w_seconds / fast_w_seconds if fast_w_seconds > 0 else float("inf")
    )
    print(
        f"weighted kernel at n=5000: naive {naive_w_seconds:.2f}s, fast "
        f"{fast_w_seconds * 1e3:.1f}ms, speedup {weighted_speedup:.0f}x"
    )
    scale = max(1.0, abs(den_naive))
    assert abs(num_fast - num_naive) <= 1e-9 * scale
    assert abs(den_fast - den_naive) <= 1e-9 * scale
    assert weighted_speedup >= 5.0


@pytest.mark.parametrize("sampler_name", ["batch_bfs", "importance", "whole_graph"])
def test_reference_sampling(benchmark, sampler_name):
    """One reference-node sample of n=300 at h=1 per sampler."""
    sampler = create_sampler(
        sampler_name, GRAPH, vicinity_index=VICINITY_INDEX, random_state=5
    )
    benchmark.pedantic(
        lambda: sampler.sample(EVENT_NODES, 1, 300), rounds=3, iterations=1
    )


def _rank_with_loop():
    tester = TescTester(RANK_DATASET.attributed, RANK_CONFIG)
    return [tester.test(event_a, event_b) for event_a, event_b in RANK_PAIRS]


def _rank_with_batch_engine():
    engine = BatchTescEngine(RANK_DATASET.attributed, RANK_CONFIG)
    return engine.rank_pairs(RANK_PAIRS)


def test_rank_pairs_per_pair_loop(benchmark):
    """Baseline: 15 keyword pairs through per-pair TescTester.test."""
    results = benchmark.pedantic(_rank_with_loop, rounds=3, iterations=1)
    assert len(results) == len(RANK_PAIRS)


def test_rank_pairs_batch_engine(benchmark):
    """The same 15 pairs through the shared-sample batch engine."""
    ranking = benchmark.pedantic(_rank_with_batch_engine, rounds=3, iterations=1)
    assert len(ranking) == len(RANK_PAIRS)


def test_batch_engine_beats_per_pair_loop():
    """The headline claim measured directly: one shared sampling + density
    pass across 15 pairs must beat 15 independent per-pair passes.

    Best-of-two timings damp GC pauses and scheduler noise so the assertion
    stays safe on loaded CI runners (the real gap is several-fold).
    """
    def best_of_two(func):
        timings = []
        for _ in range(2):
            started = time.perf_counter()
            result = func()
            timings.append(time.perf_counter() - started)
        return result, min(timings)

    loop_results, loop_seconds = best_of_two(_rank_with_loop)
    ranking, batch_seconds = best_of_two(_rank_with_batch_engine)

    speedup = loop_seconds / batch_seconds if batch_seconds > 0 else float("inf")
    print(
        f"\nper-pair loop: {loop_seconds:.3f}s, batch engine: {batch_seconds:.3f}s, "
        f"speedup: {speedup:.1f}x over {len(RANK_PAIRS)} pairs"
    )
    assert len(ranking) == len(loop_results)
    assert batch_seconds < loop_seconds


# A heavier DBLP-like workload for the serial-vs-parallel comparison: 50
# keyword pairs at the paper's n=900 sample size, the shape of the 50-pair
# acceptance run.  Thread start-up is part of the measured parallel times (a
# fresh engine per round), so the comparison is honest about overheads; the
# parallel win is confined to the density pass and scales with the number of
# physical cores the runner provides.
PARALLEL_DATASET = make_dblp_like(
    num_communities=28, community_size=60, num_positive_pairs=13,
    num_negative_pairs=12, num_background_keywords=50, random_state=11,
)
PARALLEL_PAIRS = (
    list(PARALLEL_DATASET.positive_pairs)
    + list(PARALLEL_DATASET.negative_pairs)
    + [
        (PARALLEL_DATASET.background_events[i], PARALLEL_DATASET.background_events[i + 1])
        for i in range(0, len(PARALLEL_DATASET.background_events), 2)
    ]
)
PARALLEL_CONFIG = TescConfig(vicinity_level=1, sample_size=900, random_state=17)


def test_rank_pairs_serial_fifty(benchmark):
    """Serial baseline: the 50-pair workload through one BatchTescEngine."""

    def run():
        engine = BatchTescEngine(PARALLEL_DATASET.attributed, PARALLEL_CONFIG)
        return engine.rank_pairs(PARALLEL_PAIRS)

    ranking = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(ranking) == len(PARALLEL_PAIRS)


@pytest.mark.parametrize("workers", [2, 4])
def test_rank_pairs_threaded_fifty(benchmark, workers):
    """The same 50 pairs with the density pass split across threads."""

    def run():
        engine = BatchTescEngine(
            PARALLEL_DATASET.attributed, PARALLEL_CONFIG, workers=workers
        )
        return engine.rank_pairs(PARALLEL_PAIRS)

    ranking = benchmark.pedantic(run, rounds=3, iterations=1)
    assert len(ranking) == len(PARALLEL_PAIRS)


# -- the 20k-node DBLP-like graph of the durability cold-start cases ----------
#
# (Incremental re-ranking under edge churn is measured end to end by the
# performance ledger's ``churn`` workload in benchmarks/ledger, against a
# live server, rather than here.)

STREAM_DATASET = make_dblp_like(
    num_communities=200, community_size=77, num_positive_pairs=5,
    num_negative_pairs=5, num_background_keywords=0, random_state=13,
)


# -- progressive top-k: confidence-bound pruning vs full-budget ranking -------
#
# A DBLP-scale all-pairs top-k scan: 30 keywords (3 strongly co-occurring
# planted pairs plus background noise) on a ~20k-node community-ring graph,
# 435 candidate pairs, reference budget 8000 at h=1, k=3.  The full path
# estimates every pair on the full budget; the progressive engine grows one
# prefix-extendable shared sample in geometric rounds (here 512 -> 2048 ->
# 8000 — a first round big enough for decisive bounds, then 4x jumps),
# prunes pairs whose confidence interval falls below the k-th lower
# bound, and only the survivors ever see the full sample — while returning
# the bit-identical top-k (asserted below).  The quadratic pair count is the
# point: an all-pairs scan over E events pays O(E^2) full-budget estimates,
# and the bounds cut that to the planted pairs after the first round or two.

TOPK_DATASET = make_dblp_like(
    num_communities=200, community_size=77, num_positive_pairs=3,
    num_negative_pairs=0, num_background_keywords=24,
    cooccurrence_fraction=0.7, keyword_coverage=0.9, communities_per_pair=6,
    random_state=13,
)
TOPK_K = 3
TOPK_CONFIG = TescConfig(
    vicinity_level=1, sample_size=8000, random_state=17,
    topk_initial_sample_size=512, topk_growth_factor=4.0,
)


def _topk_full_rank():
    engine = BatchTescEngine(TOPK_DATASET.attributed, TOPK_CONFIG)
    return engine.rank_pairs("all")


def _topk_progressive():
    from repro.core.topk import ProgressiveTopKEngine

    engine = ProgressiveTopKEngine(TOPK_DATASET.attributed, TOPK_CONFIG)
    return engine.top_k(TOPK_K)


def test_topk_full_rank_all_pairs(benchmark):
    """Baseline: the 435-pair all-pairs scan through full-budget rank_pairs."""
    ranking = benchmark.pedantic(_topk_full_rank, rounds=3, iterations=1)
    assert len(ranking) == 435


def test_topk_progressive_engine(benchmark):
    """The same scan through the progressive top-k engine (k=3)."""
    ranking = benchmark.pedantic(_topk_progressive, rounds=3, iterations=1)
    assert len(ranking) == TOPK_K


def test_progressive_topk_beats_full_rank():
    """The PR's top-k acceptance bar, measured directly: on the all-pairs
    DBLP-scale scan the progressive engine must return the exact same top-k
    as full-budget ``rank_pairs`` — keys, scores, z-scores, verdicts and
    ranks — at >= 3x less wall-clock (~4x measured; best of three rounds is
    asserted to damp scheduler noise on loaded CI runners)."""
    speedups = []
    for _ in range(3):
        started = time.perf_counter()
        full = _topk_full_rank()
        full_seconds = time.perf_counter() - started

        started = time.perf_counter()
        progressive = _topk_progressive()
        progressive_seconds = time.perf_counter() - started

        expected = full.top(TOPK_K)
        assert [pair.events for pair in progressive] == [
            pair.events for pair in expected
        ]
        assert [pair.score for pair in progressive] == [
            pair.score for pair in expected
        ]
        assert [pair.z_score for pair in progressive] == [
            pair.z_score for pair in expected
        ]
        assert [pair.verdict for pair in progressive] == [
            pair.verdict for pair in expected
        ]
        assert [pair.rank for pair in progressive] == [
            pair.rank for pair in expected
        ]
        stats = progressive.topk_stats
        assert stats.pairs_pruned > 0
        speedup = (
            full_seconds / progressive_seconds
            if progressive_seconds > 0 else float("inf")
        )
        speedups.append(speedup)
        print(
            f"\ntop-{TOPK_K} of {stats.num_pairs} pairs: full "
            f"{full_seconds:.3f}s, progressive {progressive_seconds:.3f}s, "
            f"speedup {speedup:.1f}x (pruned {stats.pairs_pruned}, "
            f"survivors {stats.pairs_survived}, rounds "
            f"{[round_.sample_size for round_ in stats.rounds]})"
        )
    assert max(speedups) >= 3.0


# -- correlation service: density threads vs serial ---------------------------
#
# ``workers=2`` splits the grouped-BFS density pass across two threads; the
# sample draw and the estimates stay in the calling thread.  On this 50-pair
# workload on a 2-core box the density pass measured 19.8ms serial and 8.9ms
# on 2 threads, against a 44ms rank.  The retired process pool lost to
# serial here (fork plus shared-memory transport per call), which is what
# the asserted case guards: workers=2 beats serial or ties within 10% — and
# returns the bit-identical ranking.


def _service_rank_serial():
    engine = BatchTescEngine(PARALLEL_DATASET.attributed, PARALLEL_CONFIG)
    return engine.rank_pairs(PARALLEL_PAIRS)


def _service_rank_pooled(workers=2):
    engine = BatchTescEngine(
        PARALLEL_DATASET.attributed, PARALLEL_CONFIG, workers=workers
    )
    return engine.rank_pairs(PARALLEL_PAIRS)


def test_rank_pairs_warm_pool_fifty(benchmark):
    """The service regime: two density threads, fresh engine per round."""
    _service_rank_pooled()  # warm the graph's indicator and vicinity caches
    benchmark.pedantic(_service_rank_pooled, rounds=5, iterations=1)


def test_warm_pool_ties_or_beats_serial_fifty():
    """The service PR's acceptance bar, measured directly: on the 50-pair
    workload, warm rank_pairs with workers=2 must beat serial or tie within
    10% — while returning the bit-identical ranking.  The win comes from the
    density pass alone, so it grows with the cores.  Best-of-six timings
    damp scheduler noise; both sides are warmed before measurement.
    """
    # Warm both sides, then interleave the measured rounds: CPU-load drift
    # on a shared runner hits both legs alike instead of whichever leg
    # happens to run later.
    _service_rank_serial()
    _service_rank_pooled()
    serial_timings, warm_timings = [], []
    for _ in range(6):
        started = time.perf_counter()
        serial = _service_rank_serial()
        serial_timings.append(time.perf_counter() - started)
        started = time.perf_counter()
        warm = _service_rank_pooled()
        warm_timings.append(time.perf_counter() - started)
    serial_seconds = min(serial_timings)
    warm_seconds = min(warm_timings)

    ratio = warm_seconds / serial_seconds if serial_seconds > 0 else float("inf")
    print(
        f"\n50-pair rank: serial {serial_seconds * 1e3:.1f}ms, warm "
        f"(2 workers) {warm_seconds * 1e3:.1f}ms ({ratio:.2f}x serial)"
    )
    assert [pair.events for pair in warm] == [pair.events for pair in serial]
    assert [pair.score for pair in warm] == [pair.score for pair in serial]
    assert [pair.z_score for pair in warm] == [pair.z_score for pair in serial]
    assert [pair.verdict for pair in warm] == [pair.verdict for pair in serial]
    assert warm_seconds <= 1.1 * serial_seconds, (
        f"warm {warm_seconds * 1e3:.1f}ms vs serial "
        f"{serial_seconds * 1e3:.1f}ms ({ratio:.2f}x) — density threads "
        "must tie serial within 10% or beat it on the 50-pair workload"
    )


def test_parallel_engine_matches_serial_on_bench_workload():
    """Sanity alongside the timing cases: the parallel path returns exactly
    the serial ranking on the benchmark workload (and reports its speedup —
    wall-clock parity is expected on single-core runners, a multiple on
    multi-core ones, so no timing assertion is made here)."""
    serial_engine = BatchTescEngine(PARALLEL_DATASET.attributed, PARALLEL_CONFIG)
    started = time.perf_counter()
    serial = serial_engine.rank_pairs(PARALLEL_PAIRS)
    serial_seconds = time.perf_counter() - started
    engine = BatchTescEngine(
        PARALLEL_DATASET.attributed, PARALLEL_CONFIG, workers=4
    )
    started = time.perf_counter()
    parallel = engine.rank_pairs(PARALLEL_PAIRS)
    parallel_seconds = time.perf_counter() - started
    print(
        f"\nserial: {serial_seconds:.3f}s, parallel (4 workers): "
        f"{parallel_seconds:.3f}s over {len(PARALLEL_PAIRS)} pairs"
    )
    assert [pair.events for pair in parallel] == [pair.events for pair in serial]
    assert [pair.score for pair in parallel] == [pair.score for pair in serial]
    assert [pair.verdict for pair in parallel] == [pair.verdict for pair in serial]


# -- HTAP: snapshot-isolated queries racing commits ---------------------------
#
# The PR 7 acceptance scenario: a dynamic graph takes a steady stream of
# bulky structural commits while reader threads rank the same monitored
# pairs.  The unit of merit is analytical queries completed **during commit
# windows** — the span of the commit call itself, during which the old
# lock-serialised engine held its write lock and every reader queued.
# Under snapshot isolation readers lease the pre-commit epoch straight from
# the lease table (the wait-free `pin()` fast path) and keep answering from
# its cached ranking right through the apply; under the reference
# `_ReadWriteLock` discipline they block until the writer is done.  Both
# systems run the identical commit schedule and the identical reader
# workload (the warm rank that re-establishes the new epoch's ranking runs
# *outside* the window in both), and every MVCC answer is asserted
# bit-identical to a serial from-scratch reference at the epoch it reports.

class _ReadWriteLock:
    """Readers-writer lock: many concurrent ranks, exclusive commits.

    Writer-preferring — a waiting commit blocks new readers — so a steady
    rank load cannot starve commits.  This is the pre-snapshot-isolation
    service discipline the lock-serialised HTAP baseline reinstates around
    an otherwise identical engine.
    """

    def __init__(self) -> None:
        self._condition = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._condition:
            while self._writer or self._writers_waiting:
                self._condition.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._condition:
            self._readers -= 1
            if not self._readers:
                self._condition.notify_all()

    def acquire_write(self) -> None:
        with self._condition:
            self._writers_waiting += 1
            while self._writer or self._readers:
                self._condition.wait()
            self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._condition:
            self._writer = False
            self._condition.notify_all()


HTAP_DATASET = make_dblp_like(
    num_communities=10, community_size=30, num_positive_pairs=4,
    num_negative_pairs=3, num_background_keywords=10, random_state=11,
)
HTAP_CONFIG = TescConfig(vicinity_level=1, sample_size=200, random_state=17)
HTAP_PAIRS = list(HTAP_DATASET.positive_pairs)[:2] + list(HTAP_DATASET.negative_pairs)[:1]
HTAP_COMMITS = 4
HTAP_READERS = 2
#: Structural deltas per commit — sized so one apply (netting + CSR splice +
#: vicinity rebase) spans a measurable window rather than a few microseconds.
HTAP_EDGES_PER_COMMIT = 2500
#: Idle gap between commit windows (readers drain their cache-hit queries).
HTAP_GAP_SECONDS = 0.03


def _htap_dynamic():
    attributed = HTAP_DATASET.attributed
    return DynamicAttributedGraph(
        attributed.csr.copy() if hasattr(attributed.csr, "copy") else attributed.csr,
        {name: attributed.event_nodes(name) for name in attributed.event_names()},
    )


def _htap_schedule(dynamic):
    """HTAP_COMMITS bulk edge-add batches, every delta effective (fresh edge)."""
    existing = set()
    for u in range(dynamic.num_nodes):
        for v in dynamic.csr.neighbors(u):
            v = int(v)
            if u < v:
                existing.add((u, v))
    non_edges = [
        (u, v)
        for u in range(dynamic.num_nodes)
        for v in range(u + 1, dynamic.num_nodes)
        if (u, v) not in existing
    ]
    order = np.random.default_rng(23).permutation(len(non_edges))
    assert len(order) >= HTAP_COMMITS * HTAP_EDGES_PER_COMMIT
    return [
        [
            Delta.edge_add(*non_edges[int(j)]).to_record()
            for j in order[i * HTAP_EDGES_PER_COMMIT:(i + 1) * HTAP_EDGES_PER_COMMIT]
        ]
        for i in range(HTAP_COMMITS)
    ]


def _run_htap_scenario(lock_serialised):
    """Run the commit/query race; returns per-system measurements.

    ``lock_serialised=False`` runs the MVCC engine as shipped.
    ``lock_serialised=True`` wraps every reader in ``acquire_read`` and the
    whole commit window in ``acquire_write`` of the reference
    ``_ReadWriteLock`` — the pre-snapshot-isolation service discipline —
    on an otherwise identical engine.
    """
    from repro.service.engine import ServiceEngine

    dynamic = _htap_dynamic()
    schedule = _htap_schedule(dynamic)
    engine = ServiceEngine(dynamic, HTAP_CONFIG)
    lock = _ReadWriteLock() if lock_serialised else None
    engine.rank(HTAP_PAIRS)  # warm the initial epoch

    responses = []
    responses_lock = threading.Lock()
    done = threading.Event()
    errors = []

    def reader():
        try:
            while not done.is_set():
                if lock is not None:
                    lock.acquire_read()
                try:
                    response = engine.rank(HTAP_PAIRS)
                finally:
                    if lock is not None:
                        lock.release_read()
                with responses_lock:
                    responses.append((time.perf_counter(), response))
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(HTAP_READERS)]
    for thread in threads:
        thread.start()
    windows = []
    try:
        for batch in schedule:
            time.sleep(HTAP_GAP_SECONDS)
            started = time.perf_counter()
            if lock is not None:
                lock.acquire_write()
            try:
                engine.commit(batch)
            finally:
                if lock is not None:
                    lock.release_write()
            windows.append((started, time.perf_counter()))
            # Warm rank at the new epoch — outside the window, under the
            # read discipline of the scenario (it is a read, after all).
            if lock is not None:
                lock.acquire_read()
            try:
                engine.rank(HTAP_PAIRS)
            finally:
                if lock is not None:
                    lock.release_read()
        time.sleep(HTAP_GAP_SECONDS)
    finally:
        done.set()
        for thread in threads:
            thread.join(timeout=120.0)
    engine.close()
    assert not errors, errors

    in_window = [
        response for finished, response in responses
        if any(start <= finished <= end for start, end in windows)
    ]
    window_seconds = sum(end - start for start, end in windows)
    return {
        "responses": responses,
        "in_window": len(in_window),
        "window_seconds": window_seconds,
        "total_queries": len(responses),
        "schedule": schedule,
    }


def test_htap_scenario_mvcc(benchmark):
    """Wall-clock of the full MVCC commit/query race (JSON artifact case)."""
    result = benchmark.pedantic(
        lambda: _run_htap_scenario(lock_serialised=False), rounds=3, iterations=1
    )
    assert result["total_queries"] > 0


def test_htap_scenario_lock_serialised(benchmark):
    """The identical race behind the reference read/write lock."""
    result = benchmark.pedantic(
        lambda: _run_htap_scenario(lock_serialised=True), rounds=3, iterations=1
    )
    assert result["total_queries"] > 0


def test_htap_mvcc_beats_lock_serialised():
    """The HTAP acceptance bar: at an equal commit rate, snapshot isolation
    must complete >= 3x the lock-serialised baseline's query throughput
    during commit windows — and every MVCC answer must be bit-identical to
    a from-scratch serial reference at the epoch it reports."""
    from repro.service.engine import pair_record

    mvcc = _run_htap_scenario(lock_serialised=False)
    locked = _run_htap_scenario(lock_serialised=True)

    mvcc_rate = mvcc["in_window"] / mvcc["window_seconds"]
    locked_rate = locked["in_window"] / locked["window_seconds"]
    print(
        f"\nqueries during commit windows: mvcc {mvcc['in_window']} "
        f"({mvcc_rate:.0f}/s over {mvcc['window_seconds'] * 1e3:.0f}ms), "
        f"lock-serialised {locked['in_window']} "
        f"({locked_rate:.0f}/s over {locked['window_seconds'] * 1e3:.0f}ms); "
        f"totals {mvcc['total_queries']} vs {locked['total_queries']}"
    )
    assert mvcc["in_window"] >= 20, (
        "too few MVCC queries completed during commit windows for the rate "
        f"to be meaningful (got {mvcc['in_window']})"
    )
    assert mvcc_rate >= 3.0 * locked_rate, (
        f"snapshot isolation must sustain >= 3x the lock-serialised "
        f"baseline during commit windows, got {mvcc_rate:.0f}/s vs "
        f"{locked_rate:.0f}/s"
    )

    # Bit-identity: replay each observed epoch's prefix serially and compare.
    references = {}
    for _finished, response in mvcc["responses"]:
        epoch = response["epoch"]
        if epoch not in references:
            replayed = _htap_dynamic()
            for batch in mvcc["schedule"][:epoch]:
                applied = replayed.apply(
                    [Delta.from_record(record) for record in batch]
                )
                assert applied.changed
            ranking = BatchTescEngine(
                replayed.snapshot(), HTAP_CONFIG
            ).rank_pairs(HTAP_PAIRS)
            references[epoch] = [pair_record(pair) for pair in ranking.pairs]
        assert response["pairs"] == references[epoch], (
            f"MVCC answer at epoch {epoch} diverged from the serial reference"
        )


# -- observability: instrumentation overhead on the service rank path ---------
#
# The metrics registry and span tracing sit on every service request.  The
# bar: a fully instrumented rank (enabled registry, per-stage spans, trace
# buffer, latency histograms) stays within 3% of the same engine built with
# the no-op registry — the instruments are lock-guarded counter bumps and a
# handful of contextvar reads, nothing proportional to the sample size.
# Fresh engines per round keep every request cache-missing, so the measured
# path includes sampling, the density pass and the Kendall estimates — the
# work the instruments are amortised against.


def _service_rank_once(metrics):
    from repro.service.engine import ServiceEngine

    engine = ServiceEngine(
        RANK_DATASET.attributed, RANK_CONFIG, workers=1, metrics=metrics
    )
    try:
        started = time.perf_counter()
        result = engine.rank(RANK_PAIRS)
        elapsed = time.perf_counter() - started
    finally:
        engine.close()
    assert len(result["pairs"]) == len(RANK_PAIRS)
    return elapsed


@pytest.mark.parametrize("mode", ["instrumented", "noop"])
def test_service_rank_instrumentation(benchmark, mode):
    """The 15-pair service rank path, instrumented vs no-op registry."""
    from repro.obs import MetricsRegistry, NULL_REGISTRY

    def run():
        metrics = MetricsRegistry() if mode == "instrumented" else NULL_REGISTRY
        return _service_rank_once(metrics)

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_instrumentation_overhead_within_three_percent():
    """The observability acceptance bar, measured directly: best-of-five
    interleaved rounds, instrumented within 3% of the no-op build (plus a
    1ms absolute grace so scheduler noise on a sub-second workload cannot
    fail the bar spuriously)."""
    from repro.obs import MetricsRegistry, NULL_REGISTRY

    instrumented, noop = [], []
    _service_rank_once(NULL_REGISTRY)  # warm imports/caches off the clock
    for _ in range(5):
        noop.append(_service_rank_once(NULL_REGISTRY))
        instrumented.append(_service_rank_once(MetricsRegistry()))

    best_instrumented, best_noop = min(instrumented), min(noop)
    overhead = (
        best_instrumented / best_noop - 1.0 if best_noop > 0 else 0.0
    )
    print(
        f"\ninstrumented: {best_instrumented:.4f}s, no-op: {best_noop:.4f}s, "
        f"overhead: {overhead * 100:+.2f}%"
    )
    assert best_instrumented <= 1.03 * best_noop + 1e-3, (
        f"instrumentation overhead {overhead * 100:.2f}% exceeds the 3% bar "
        f"({best_instrumented:.4f}s vs {best_noop:.4f}s)"
    )


# -- robustness: fault-seam overhead on the service rank path -----------------
#
# The fault-injection seams (faults.inject at socket/fsync sites)
# and the cooperative deadline checkpoints sit on every service request,
# armed or not.  The bar: a rank through the *disarmed* seams stays within
# 3% of the same engine with both hooks compiled down to bare no-ops — the
# disarmed fast path is a single module-global None check and the
# checkpoint a contextvar read, nothing proportional to the sample size.


def test_fault_seam_overhead_within_three_percent():
    """The robustness acceptance bar, measured directly: best-of-five
    interleaved rounds, disarmed seams within 3% of a build with
    ``faults.inject`` and ``deadlines.checkpoint`` patched to no-ops
    (plus a 1ms absolute grace so scheduler noise on a sub-second
    workload cannot fail the bar spuriously)."""
    from repro.obs import NULL_REGISTRY
    from repro.service import faults
    from repro.utils import deadlines

    assert faults.active() is None, "seams must be disarmed for this bar"

    def _noop(*args, **kwargs):
        return None

    def _stripped_rank_once():
        real_inject, real_checkpoint = faults.inject, deadlines.checkpoint
        faults.inject, deadlines.checkpoint = _noop, _noop
        try:
            return _service_rank_once(NULL_REGISTRY)
        finally:
            faults.inject, deadlines.checkpoint = real_inject, real_checkpoint

    seamed, stripped = [], []
    _service_rank_once(NULL_REGISTRY)  # warm imports/caches off the clock
    for _ in range(5):
        stripped.append(_stripped_rank_once())
        seamed.append(_service_rank_once(NULL_REGISTRY))

    best_seamed, best_stripped = min(seamed), min(stripped)
    overhead = (
        best_seamed / best_stripped - 1.0 if best_stripped > 0 else 0.0
    )
    print(
        f"\nseamed: {best_seamed:.4f}s, stripped: {best_stripped:.4f}s, "
        f"overhead: {overhead * 100:+.2f}%"
    )
    assert best_seamed <= 1.03 * best_stripped + 1e-3, (
        f"fault-seam overhead {overhead * 100:.2f}% exceeds the 3% bar "
        f"({best_seamed:.4f}s vs {best_stripped:.4f}s)"
    )


# -- durability: cold start from a checkpoint vs full WAL replay --------------
#
# The recovery acceptance bar for the checkpoint store: on a 200-batch log
# of edge churn, booting from the newest checkpoint (plus an empty WAL tail)
# must be >= 3x faster than replaying the whole log from scratch — while
# restoring the bit-identical graph.  Two on-disk deployments are staged
# once: "replay/" has the full uncompacted WAL and no checkpoint; "ckpt/"
# has a checkpoint covering all 200 batches and the compacted WAL the
# service would leave behind.  Both boots go through the real recovery
# ladder (WAL open + recover()), exactly what ``tesc serve --store`` does.

COLD_START_BATCHES = 200
_COLD_START: dict = {}


def _cold_start_deployments():
    """Stage both deployments on disk (once per benchmark session)."""
    if _COLD_START:
        return _COLD_START
    import os
    import shutil
    import tempfile

    from repro.storage.checkpoint import CheckpointStore
    from repro.streaming.delta import WriteAheadLog

    root = tempfile.mkdtemp(prefix="tesc-bench-coldstart-")
    replay_wal = os.path.join(root, "replay", "wal.log")
    ckpt_wal = os.path.join(root, "ckpt", "wal.log")
    ckpt_store = os.path.join(root, "ckpt", "store")
    os.makedirs(os.path.dirname(replay_wal))
    os.makedirs(os.path.dirname(ckpt_wal))

    graph = DynamicAttributedGraph(
        STREAM_DATASET.graph.copy(), STREAM_DATASET.attributed.events.copy()
    )
    mutable = STREAM_DATASET.graph.copy()
    with WriteAheadLog(replay_wal, fsync=False) as wal:
        for seed in range(COLD_START_BATCHES):
            _, deltas = rewire_random_edges(
                mutable, 10, random_state=20_000 + seed,
                in_place=True, with_deltas=True,
            )
            batch = DeltaBatch.coerce(deltas)
            wal.append_batch(batch)
            graph.apply(batch)

    shutil.copyfile(replay_wal, ckpt_wal)
    store = CheckpointStore(ckpt_store, fsync=False)
    with WriteAheadLog(ckpt_wal, fsync=False) as wal:
        info = store.write(
            graph.snapshot().checkpoint_state(),
            config_digest="bench",
            wal_batches=wal.total_batches,
            wal_offset=wal.committed_offset,
        )
        wal.compact(info.wal_offset)

    _COLD_START.update(
        replay_wal=replay_wal, ckpt_wal=ckpt_wal, ckpt_store=ckpt_store,
        versions=graph.versions(), epoch=graph.epoch, final=graph,
    )
    return _COLD_START


def _cold_start(wal_path, store_root=None):
    """One timed boot through the recovery ladder; returns (secs, graph)."""
    from repro.storage.checkpoint import CheckpointStore
    from repro.storage.recovery import recover
    from repro.streaming.delta import WriteAheadLog

    deploy = _cold_start_deployments()
    graph = DynamicAttributedGraph(
        STREAM_DATASET.graph.copy(), STREAM_DATASET.attributed.events.copy()
    )
    start = time.perf_counter()
    store = (
        CheckpointStore(store_root, fsync=False)
        if store_root is not None else None
    )
    wal = WriteAheadLog(wal_path, fsync=False)
    try:
        report = recover(graph, wal, store=store, config_digest="bench")
    finally:
        wal.close()
    elapsed = time.perf_counter() - start
    assert graph.versions() == deploy["versions"]
    assert graph.epoch == deploy["epoch"]
    return elapsed, graph, report


def test_cold_start_full_wal_replay(benchmark):
    """Baseline: replay all 200 committed batches from the WAL."""
    _cold_start_deployments()

    def run():
        elapsed, _graph, report = _cold_start(_COLD_START["replay_wal"])
        assert report.path == "full_replay"
        assert report.replayed_batches == COLD_START_BATCHES

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_cold_start_from_checkpoint(benchmark):
    """The same boot from the checkpoint + compacted (empty-tail) WAL."""
    _cold_start_deployments()

    def run():
        elapsed, _graph, report = _cold_start(
            _COLD_START["ckpt_wal"], _COLD_START["ckpt_store"]
        )
        assert report.path == "checkpoint"
        assert report.replayed_batches == 0

    benchmark.pedantic(run, rounds=3, iterations=1)


def test_checkpoint_cold_start_beats_full_replay():
    """The durability acceptance bar, measured directly: best-of-three
    boots, checkpoint cold start >= 3x faster than full WAL replay on the
    200-batch log — and the two recovered graphs are bit-identical."""
    import numpy as np

    deploy = _cold_start_deployments()
    replayed, checkpointed = [], []
    ckpt_graph = replay_graph = None
    for _ in range(3):
        secs, replay_graph, report = _cold_start(deploy["replay_wal"])
        assert report.path == "full_replay"
        replayed.append(secs)
        secs, ckpt_graph, report = _cold_start(
            deploy["ckpt_wal"], deploy["ckpt_store"]
        )
        assert report.path == "checkpoint"
        assert report.replayed_batches == 0
        checkpointed.append(secs)

    np.testing.assert_array_equal(
        ckpt_graph.csr.indptr, replay_graph.csr.indptr
    )
    np.testing.assert_array_equal(
        ckpt_graph.csr.indices, replay_graph.csr.indices
    )
    assert ckpt_graph.versions() == replay_graph.versions()
    for name in replay_graph.event_names():
        assert sorted(ckpt_graph.event_nodes(name)) == sorted(
            replay_graph.event_nodes(name)
        )

    best_replay, best_ckpt = min(replayed), min(checkpointed)
    speedup = best_replay / best_ckpt if best_ckpt > 0 else float("inf")
    print(
        f"\nfull replay: {best_replay:.4f}s, checkpoint: {best_ckpt:.4f}s, "
        f"speedup: {speedup:.1f}x"
    )
    assert best_ckpt * 3.0 <= best_replay, (
        f"checkpoint cold start {best_ckpt:.4f}s is not 3x faster than "
        f"full replay {best_replay:.4f}s (speedup {speedup:.1f}x)"
    )
