"""Brute-force numpy references the benchmark checks every answer against.

These are written independently of the simulator's scorers: plain
float64 numpy over the stored rows.  A top-k answer is correct when its
values equal the reference scores of the rows it names and no row it
left out scores strictly better than the worst row it kept; rows with
equal scores may appear in any order.
"""

from __future__ import annotations

import numpy as np


def _bipolar(a):
    return bool(np.all(np.abs(a) == 1.0))


def scores(metric, stored, queries):
    """``B×R`` reference scores of ``queries`` (``B×D``) against ``stored``."""
    stored = np.asarray(stored, dtype=np.float64)
    queries = np.atleast_2d(np.asarray(queries, dtype=np.float64))
    if metric == "dot":
        return queries @ stored.T
    if metric == "hamming":
        if _bipolar(stored) and _bipolar(queries):
            # ±1 rows differ where their product is -1: exact integers.
            return (stored.shape[1] - queries @ stored.T) / 2.0
        return np.stack([(stored != q).sum(axis=1) for q in queries]).astype(
            np.float64
        )
    if metric == "euclidean":
        return np.stack([((stored - q) ** 2).sum(axis=1) for q in queries])
    raise ValueError(f"no reference for metric {metric!r}")


def topk_ok(ref, values, indices, largest, rtol=0.0):
    """Per row of ``(values, indices)``: is it a correct top-k of the
    matching row of ``ref``?  Returns a boolean array.

    ``rtol`` is zero for integer-valued metrics, where every score is an
    exact float64 integer; real-valued Euclidean scores sum in another
    order than the reference and get a relative tolerance.
    """
    values = np.atleast_2d(values)
    indices = np.atleast_2d(indices)
    rows, k = indices.shape
    if values.shape != indices.shape or ref.shape[0] != rows or k > ref.shape[1]:
        return np.zeros(rows, dtype=bool)
    if k == 0:
        return np.ones(rows, dtype=bool)
    valid = (indices >= 0).all(axis=1) & (indices < ref.shape[1]).all(axis=1)
    idx = np.where(indices >= 0, indices, 0) % ref.shape[1]
    ordered = np.sort(idx, axis=1)
    distinct = (np.diff(ordered, axis=1) != 0).all(axis=1)
    picked = np.take_along_axis(ref, idx, axis=1)
    tol = rtol * np.maximum(1.0, np.abs(picked))
    same = (np.abs(picked.astype(np.float32) - values) <= tol).all(axis=1)
    if largest:
        kth = -np.partition(-ref, k - 1, axis=1)[:, k - 1]
        worst = picked.min(axis=1)
        ranked = worst >= kth - rtol * np.maximum(1.0, np.abs(kth))
    else:
        kth = np.partition(ref, k - 1, axis=1)[:, k - 1]
        worst = picked.max(axis=1)
        ranked = worst <= kth + rtol * np.maximum(1.0, np.abs(kth))
    return valid & distinct & same & ranked
