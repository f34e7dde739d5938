"""The cache-blocked per-slice scorer against a per-query loop reference.

``compute_scores`` scores a batch in query-row chunks sized to a fixed
scratch budget.  Every score must stay bitwise equal to the original
one-query broadcast formulas (same elementwise ops, same contiguous
``axis=-1`` reduction), with and without don't-care cells, for float32
and float64 queries and for batch sizes on both sides of every chunk
boundary.  A tracemalloc probe pins the scoring temporaries to the
budget.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator import cells
from repro.simulator.cells import BATCH_CHUNK, compute_scores, scoring_chunk

METRICS = ("hamming", "euclidean", "dot")


def reference_scores(metric, stored, queries):
    """One query at a time through the original broadcast formulas."""
    care = ~np.isnan(stored)
    rows = []
    for q in queries:
        if metric == "hamming":
            mism = stored != q
            mism &= care
            rows.append(mism.sum(axis=-1).astype(np.float64))
        elif metric == "euclidean":
            diff = stored.astype(np.float64) - q.astype(np.float64)
            diff = np.where(care, diff, 0.0)
            rows.append((diff * diff).sum(axis=-1))
        else:
            s = np.where(care, stored.astype(np.float64), 0.0)
            rows.append((s * q.astype(np.float64)).sum(axis=-1))
    return np.array(rows, dtype=np.float64).reshape(
        len(rows), stored.shape[0]
    )


def assert_bitwise(got, want):
    assert got.shape == want.shape and got.dtype == want.dtype
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


def make_store(rng, rows, cols, real, dont_care):
    stored = (
        rng.standard_normal((rows, cols)) if real
        else rng.choice([-1.0, 1.0], (rows, cols))
    )
    if dont_care:
        stored[rng.random((rows, cols)) < 0.2] = np.nan
    return stored


def make_queries(rng, n, cols, real, dtype):
    queries = (
        rng.standard_normal((n, cols)) if real
        else rng.choice([-1.0, 1.0], (n, cols))
    )
    return queries.astype(dtype)


@given(
    rows=st.integers(1, 48),
    cols=st.integers(1, 24),
    budget=st.sampled_from([64, 1024, 8192, cells.SCRATCH_BYTES]),
    offset=st.sampled_from([-1, 0, 1]),
    real=st.booleans(),
    dont_care=st.booleans(),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=60, deadline=None)
def test_chunk_boundaries_bitwise(rows, cols, budget, offset, real,
                                  dont_care, dtype, seed):
    """Batches of chunk-1, chunk and chunk+1 rows (and a single query)
    match the loop reference bit for bit under any scratch budget."""
    rng = np.random.default_rng(seed)
    stored = make_store(rng, rows, cols, real, dont_care)
    original = cells.SCRATCH_BYTES
    cells.SCRATCH_BYTES = budget
    try:
        n = max(1, scoring_chunk(rows, cols) + offset)
        queries = make_queries(rng, n, cols, real, dtype)
        for metric in METRICS:
            want = reference_scores(metric, stored, queries)
            assert_bitwise(compute_scores(metric, stored, queries), want)
            assert_bitwise(compute_scores(metric, stored, queries[0]),
                           want[0])
    finally:
        cells.SCRATCH_BYTES = original


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("dont_care", [False, True])
@pytest.mark.parametrize("metric", METRICS)
def test_beyond_batch_chunk_bitwise(metric, dont_care, dtype):
    """A store small enough that BATCH_CHUNK caps the chunk: a batch
    past the cap still matches the loop reference bit for bit."""
    rng = np.random.default_rng(7)
    stored = make_store(rng, 12, 10, True, dont_care)
    assert scoring_chunk(12, 10) == BATCH_CHUNK
    queries = make_queries(rng, BATCH_CHUNK + 37, 10, True, dtype)
    assert_bitwise(
        compute_scores(metric, stored, queries),
        reference_scores(metric, stored, queries),
    )


@pytest.mark.parametrize("dont_care", [False, True])
@pytest.mark.parametrize("metric", METRICS)
def test_knn_slice_bitwise(metric, dont_care):
    """The KNN store's 1024×32 column slice at batch 64 (chunked by the
    byte budget, not by BATCH_CHUNK)."""
    rng = np.random.default_rng(11)
    stored = make_store(rng, 1024, 32, True, dont_care)
    assert 1 < scoring_chunk(1024, 32) < 64
    queries = make_queries(rng, 64, 32, True, np.float32)
    assert_bitwise(
        compute_scores(metric, stored, queries),
        reference_scores(metric, stored, queries),
    )


def test_chunk_size_follows_budget():
    assert scoring_chunk(1024, 32) * 1024 * 32 * 8 <= cells.SCRATCH_BYTES
    assert scoring_chunk(4, 4) == BATCH_CHUNK
    assert scoring_chunk(1 << 20, 64) == 1   # one query never splits
    assert scoring_chunk(0, 32) == BATCH_CHUNK


@pytest.mark.parametrize("dont_care", [False, True])
@pytest.mark.parametrize("metric", METRICS)
def test_scoring_peak_memory_bounded(metric, dont_care):
    """A 64-query batch on a 1024×32 slice allocates a few MiB at peak,
    not the 32 MiB of a full ``B×R×C`` broadcast (two 16 MiB
    temporaries alive at once)."""
    rng = np.random.default_rng(3)
    stored = make_store(rng, 1024, 32, True, dont_care)
    queries = make_queries(rng, 64, 32, True, np.float64)
    compute_scores(metric, stored, queries)   # warm imports and caches
    tracemalloc.start()
    try:
        compute_scores(metric, stored, queries)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 2**20, f"peak {peak / 2**20:.1f} MiB"
