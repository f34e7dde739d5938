"""CAM cell models: encoding and distance semantics per CAM type.

The cell type determines how patterns are stored and which distance the
match lines realise (paper §II-B):

* **BCAM/TCAM** — one bit per cell, bit-wise Hamming distance; TCAM adds
  the don't-care state ``x`` that matches both 0 and 1.
* **MCAM** — multi-bit cells; mismatch per cell is counted on the
  discretised values (multi-state Hamming), enabling multi-bit HDC and
  dot-product-style similarity à la iMARS.
* **ACAM** — analog ranges per cell; a query matches a cell when it falls
  inside the stored ``[lo, hi]`` range, the distance is how far outside.
"""

from __future__ import annotations

import math

import numpy as np

#: TCAM don't-care marker in stored codes.  NaN never collides with real
#: data (bipolar ±1 hypervectors and quantized levels are all finite).
DONT_CARE = float("nan")


def is_dont_care(stored: np.ndarray) -> np.ndarray:
    """Boolean mask of don't-care cells."""
    return np.isnan(stored)


def quantize(data: np.ndarray, bits: int) -> np.ndarray:
    """Uniformly quantize float data to ``2**bits`` integer levels.

    The range is taken from the data itself (symmetric min/max), matching
    the per-tensor calibration the HDC/KNN apps use.  Integer inputs are
    clipped to the level range but otherwise preserved.
    """
    levels = 1 << bits
    if np.issubdtype(data.dtype, np.integer):
        return np.clip(data, 0, levels - 1).astype(np.int64)
    lo, hi = float(data.min()), float(data.max())
    if hi <= lo:
        return np.zeros(data.shape, dtype=np.int64)
    scaled = (data - lo) / (hi - lo) * (levels - 1)
    return np.clip(np.rint(scaled), 0, levels - 1).astype(np.int64)


#: Byte budget of one scoring temporary.  A batch is scored in query-row
#: chunks whose ``chunk × R × C`` float64 scratch fits in about a core's L2
#: cache, so broadcast, square and reduction run out of cache instead of
#: streaming freshly faulted pages (a 64-query batch on a 1024×32 slice
#: would otherwise build three 16 MiB temporaries).
SCRATCH_BYTES = 1 << 20

#: Upper cap on the query rows scored per vectorized step, whatever the
#: byte budget allows.  Per-row reductions are independent, so chunking
#: is bitwise-invisible.
BATCH_CHUNK = 256


def scoring_chunk(rows: int, cols: int) -> int:
    """Query rows per step for an ``rows × cols`` slice: as many as fit
    :data:`SCRATCH_BYTES` of float64 scratch, at least 1, at most
    :data:`BATCH_CHUNK`."""
    per_query = rows * cols * 8
    if per_query == 0:
        return BATCH_CHUNK
    return max(1, min(BATCH_CHUNK, SCRATCH_BYTES // per_query))


def _score_blocked(step, stored, query, buf_dtype, out_dtype):
    """Drive ``step(q, buf, out)`` over cache-sized query-row chunks.

    ``query`` is one query (``C``) or a batch (``...×C``); ``step``
    scores the ``n×C`` chunk ``q`` into the ``n×R`` slice ``out`` using
    the ``n×R×C`` scratch ``buf`` and returns ``out``.  A batch that
    fits one chunk passes ``None`` for both (numpy allocates them, within
    the budget); a larger one reuses a single scratch buffer.  With a
    C-contiguous ``stored`` both are C-ordered, so each output element
    is the same elementwise ops followed by the same contiguous
    ``axis=-1`` reduction over the same ``C`` values as a full-batch
    broadcast: results are bitwise identical.
    """
    lead = query.shape[:-1]
    rows, cols = stored.shape
    n_queries = math.prod(lead)
    q = query.reshape(n_queries, query.shape[-1])
    chunk = scoring_chunk(rows, cols)
    if n_queries <= chunk:
        return step(q, None, None).reshape(lead + (rows,))
    out = np.empty((n_queries, rows), dtype=out_dtype)
    buf = np.empty((chunk, rows, cols), dtype=buf_dtype)
    for i in range(0, n_queries, chunk):
        j = min(i + chunk, n_queries)
        step(q[i:j], buf[: j - i], out[i:j])
    return out.reshape(lead + (rows,))


def _dont_care_mask(stored: np.ndarray):
    """The don't-care mask, or ``None`` when the store has none."""
    mask = is_dont_care(stored)
    return mask if mask.any() else None


def hamming_distance(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row count of mismatching cells (don't-cares never mismatch).

    ``stored`` is ``R×C`` integer codes, ``query`` is length-``C`` or a
    ``B×C`` batch.  Returns a length-``R`` vector (``B×R`` for batches).
    """
    query = np.asarray(query)
    mask = _dont_care_mask(stored)
    care = None if mask is None else ~mask

    def step(q, mism, out):
        mism = np.not_equal(stored, q[:, None, :], out=mism)
        if care is not None:
            mism &= care
        return mism.sum(axis=-1, out=out)

    counts = _score_blocked(step, stored, query, np.bool_, np.int64)
    return counts.astype(np.float64)


def euclidean_sq_distance(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row squared Euclidean distance (ACAM/MCAM analog metric).

    Don't-care cells contribute zero distance (an ACAM cell with an
    unbounded range matches any query value).  ``query`` may be a batch
    (``B×C`` → ``B×R`` scores).
    """
    query = np.asarray(query, dtype=np.float64)
    mask = _dont_care_mask(stored)
    stored = np.ascontiguousarray(stored, dtype=np.float64)

    def step(q, diff, out):
        diff = np.subtract(stored, q[:, None, :], out=diff)
        if mask is not None:
            np.copyto(diff, 0.0, where=mask)
        np.multiply(diff, diff, out=diff)
        return diff.sum(axis=-1, out=out)

    return _score_blocked(step, stored, query, np.float64, np.float64)


def dot_similarity(stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Per-row dot product (multi-bit similarity search).

    Don't-care cells contribute nothing to the sum.  ``query`` may be a
    batch (``B×C`` → ``B×R`` scores).
    """
    mask = _dont_care_mask(stored)
    s = np.ascontiguousarray(stored, dtype=np.float64)
    if mask is not None:
        s = np.where(mask, 0.0, s)
    # Broadcast-multiply + pairwise sum (not BLAS matmul) so batched and
    # single-query scores reduce in the same order — bitwise identical.
    query = np.asarray(query, dtype=np.float64)

    def step(q, prod, out):
        prod = np.multiply(s, q[:, None, :], out=prod)
        return prod.sum(axis=-1, out=out)

    return _score_blocked(step, s, query, np.float64, np.float64)


#: metric name -> (function, True when larger score means better match)
METRIC_FUNCTIONS = {
    "hamming": (hamming_distance, False),
    "euclidean": (euclidean_sq_distance, False),
    "dot": (dot_similarity, True),
}


def compute_scores(metric: str, stored: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Dispatch to the metric implementation.

    ``query`` may be a single query (``C``) or a batch (``B×C``);
    batches are scored in cache-sized chunks (see
    :data:`SCRATCH_BYTES`) so the temporaries stay bounded.
    """
    try:
        fn, _ = METRIC_FUNCTIONS[metric]
    except KeyError:
        raise ValueError(f"unknown CAM metric: {metric!r}") from None
    return fn(stored, query)


def metric_prefers_larger(metric: str) -> bool:
    """True when a larger score is a better match for ``metric``."""
    return METRIC_FUNCTIONS[metric][1]


def perfect_score(metric: str, query: np.ndarray) -> float:
    """The score a stored row identical to ``query`` would produce.

    Distance metrics bottom out at 0; similarity metrics peak at the
    query's self-similarity.  This is the reference an EX (exact-match)
    sensing scheme compares against — the best *observed* score is not an
    exact match unless it reaches this value.
    """
    if metric not in METRIC_FUNCTIONS:
        raise ValueError(f"unknown CAM metric: {metric!r}")
    if not metric_prefers_larger(metric):
        return 0.0
    query = np.asarray(query, dtype=np.float64).reshape(1, -1)
    return float(compute_scores(metric, query, query[0])[0])
