"""Increment-sized work of the incremental family in one task
(``dedup.incremental_*``, ``cluster.incremental_connected_components`` and
``apply_incremental_cc``), plus sorted-key probes shared with the keep-best
label tag of ``dedup.fuzzy_dedup_keepbest``.

Every incremental op has the same shape. The increment's keys (content
hashes, band buckets, pair endpoints, ...) are collected into ONE sorted
numpy array (:func:`key_set`), broadcast once, and every batch of the
corpus-sized baseline is probed against it with ``np.searchsorted`` — the
baseline is only scanned. What the scan keeps is increment-sized by the
op's contract, so the rest of the op (grouping, pairing, argmax,
contraction) runs in one remote task over the increment's blocks and the
scan's output (:func:`in_one_task`) instead of through keyed exchanges,
each of which costs a fixed ~0.2 s of Ray Data execution however few rows
it moves. Plasma hands numpy arrays to a worker as zero-copy views, so a
per-batch ``ray.get`` of a key set costs microseconds and the probe needs no
per-worker index build (unlike a pickled dict or set).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray
from ray.data.block import BlockAccessor


def _arrow_blocks(blocks) -> list:
    """Non-empty blocks as Arrow tables. Zero-row blocks go first: Ray can
    emit column-less empty blocks whose blank schema has none of the key
    columns (invariant 12); a pandas block converts here."""
    tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
    return [t for t in tables if t.num_rows > 0]


@ray.remote
def _run(fn, sizes, *blocks):
    groups, start = [], 0
    for n in sizes:
        groups.append(_arrow_blocks(blocks[start:start + n]))
        start += n
    return fn(*groups)


def _block_refs(ds: ray.data.Dataset) -> list:
    # not to_arrow_refs: it asks for the schema with fetch_if_missing, which
    # runs the dataset once more (limit 1) when its blocks carry no schema
    # (an empty parquet part, a column-less empty block)
    return [ref for bundle in ds.iter_internal_ref_bundles() for ref in bundle.block_refs]


def _submit(fn, datasets):
    refs = [_block_refs(ds.materialize()) for ds in datasets]
    return _run.remote(fn, [len(r) for r in refs], *(ref for r in refs for ref in r))


def key_set(ds: ray.data.Dataset, keys_of) -> ray.ObjectRef:
    """Reference to the sorted distinct keys over every block of ``ds`` —
    the broadcast side of :func:`member_sorted` / :func:`substitute_sorted`.
    ``keys_of(block)`` returns the block's keys (an Arrow or numpy array,
    any shape). One remote task builds the set; pass a materialized ``ds``
    or this executes it."""

    def unique(tables) -> np.ndarray:
        if not tables:
            return np.array([], dtype=np.int64)
        return np.unique(np.concatenate([np.asarray(keys_of(t)).ravel() for t in tables]))

    return _submit(unique, [ds])


def in_one_task(fn, *datasets: ray.data.Dataset) -> ray.data.Dataset:
    """One-block Dataset of ``fn(blocks_0, blocks_1, ...)``, run in ONE
    remote task, where ``blocks_i`` is the list of non-empty Arrow blocks of
    ``datasets[i]`` and ``fn`` returns a ``pa.Table`` (typed even when
    empty, invariant 12). For increment-sized inputs only: the task holds
    all of them in one worker's memory. A dataset that is not materialized
    is executed once here."""
    return ray.data.from_arrow_refs([_submit(fn, datasets)])


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
    tabs = _arrow_blocks(ray.get(_block_refs(ds)))
    return pa.concat_tables(tabs) if tabs else schema.empty_table()
