"""Sorted-key broadcast probes shared by the incremental family
(``dedup.incremental_*``, ``cluster.incremental_connected_components`` and
``apply_incremental_cc``) and the keep-best label tag of
``dedup.fuzzy_dedup_keepbest``.

Every incremental op has the same shape: the increment's keys (content
hashes, band buckets, pair endpoints, ...) are collected into ONE sorted
numpy array, broadcast once, and every batch of the corpus-sized baseline is
probed against it with ``np.searchsorted``. Plasma hands numpy arrays to a
worker as zero-copy views, so a per-batch ``ray.get`` costs microseconds and
the probe needs no per-worker index build (unlike a pickled dict or set).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray


@ray.remote
def _sorted_unique(keys_of, *tables: pa.Table) -> np.ndarray:
    # drop zero-row blocks: Ray can emit column-less empty blocks whose
    # blank schema has none of the key columns (invariant 12)
    keys = [np.asarray(keys_of(t)).ravel() for t in tables if t.num_rows > 0]
    if not keys:
        return np.array([], dtype=np.int64)
    return np.unique(np.concatenate(keys))


def key_set(ds: ray.data.Dataset, keys_of) -> ray.ObjectRef:
    """Reference to the sorted distinct keys over every block of ``ds`` —
    the broadcast side of :func:`member_sorted` / :func:`substitute_sorted`.
    ``keys_of(block)`` returns the block's keys (an Arrow or numpy array,
    any shape). One remote task builds the set; pass a materialized ``ds``
    or this executes it."""
    return _sorted_unique.remote(keys_of, *ds.to_arrow_refs())


def member_sorted(arr: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Vectorized membership of ``arr`` in a SORTED key array — O(n log m)
    searchsorted. Works for int64 and object (string / bytes) arrays alike."""
    if len(arr) == 0 or len(sorted_keys) == 0:
        return np.zeros(len(arr), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_keys, arr), len(sorted_keys) - 1)
    return sorted_keys[pos] == arr


def substitute_sorted(arr: np.ndarray, sorted_keys: np.ndarray,
                      vals: np.ndarray) -> np.ndarray:
    """Replace hits of ``arr`` in the sorted lookup by the parallel ``vals``
    — substitution on the raw array, never a NaN-bearing map/fillna path
    (invariant 16)."""
    out = arr.copy()
    if len(arr) == 0 or len(sorted_keys) == 0:
        return out
    pos = np.minimum(np.searchsorted(sorted_keys, arr), len(sorted_keys) - 1)
    hit = sorted_keys[pos] == arr
    if hit.any():
        out[hit] = vals[pos[hit]]
    return out


def collect(ds: ray.data.Dataset, schema: pa.Schema) -> pa.Table:
    """``ds`` concatenated on the driver, or ``schema``'s empty table when no
    block has rows. Zero-row blocks are dropped first: Ray can emit
    column-less empty blocks that break ``pa.concat_tables`` (invariant
    12). For increment-sized tables only."""
    tabs = [t for t in ray.get(ds.to_arrow_refs()) if t.num_rows > 0]
    return pa.concat_tables(tabs) if tabs else schema.empty_table()
