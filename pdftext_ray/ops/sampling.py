"""Deterministic sampling / dataset splitting — the train/val/test
primitives a training-data pipeline needs at 100 TB.

Both operators gate each row on a HASH of its key, not on randomness, so
they are (a) layout-independent — the same row lands in the same
split regardless of block layout, parallelism, file order, or re-runs;
(b) shuffle-free — a pure vectorized ``map_batches`` filter; (c)
SQL-expressible — the integer-key hash is plain 64-bit wraparound
arithmetic DuckDB reproduces bit-for-bit (the correctness gate checks it),
and the string-key path uses md5. This is the standard salted-hash
splitting scheme (vs ``Dataset.random_sample``, whose draw depends on Ray's
task layout — see ops/similarity.py's round-2 note).
"""

from __future__ import annotations

import hashlib
from typing import Dict

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# odd 64-bit multiplier (Fibonacci hashing); buckets live in [0, 10000)
_K = 0x9E3779B97F4A7C15
_BUCKETS = 10_000


def _key_buckets(col, seed: int) -> np.ndarray:
    """Per-row bucket in [0, 10000), a pure function of (key, seed).

    Integer keys: ((key + seed) * K) >> 32 % 10000 in uint64 wraparound —
    reproducible in SQL as
    ``(((CAST(k + seed AS HUGEINT) * K) % 2^64) // 2^32) % 10000``.
    String keys: first 8 md5 hex digits as an integer, % 10000 —
    reproducible as ``CAST('0x' || substr(md5(k), 1, 8) AS BIGINT) % 10000``
    (seed is appended to the string).
    """
    if pa.types.is_integer(col.type):
        raw = np.asarray(col)
        if len(raw) and raw.min() < 0:
            # uint64 wraparound of negative keys diverges from the signed
            # HUGEINT arithmetic of the documented SQL oracle — refuse
            # rather than silently break the bit-exactness contract
            raise ValueError("hash sampling requires non-negative integer keys")
        ids = raw.astype(np.uint64)
        h = ((ids + np.uint64(seed)) * np.uint64(_K)) >> np.uint64(32)
        return (h % np.uint64(_BUCKETS)).astype(np.int64)
    return np.array(
        [
            int(hashlib.md5(f"{v}{seed}".encode("utf-8")).hexdigest()[:8], 16) % _BUCKETS
            for v in col.to_pylist()
        ],
        dtype=np.int64,
    )


def _gate_lookup(col, gates: Dict, default_gate: int) -> np.ndarray:
    """Vectorized per-row gate from a small group→gate dict: one
    ``pc.index_in`` against the key set + one numpy take (no Python loop
    over rows). Null or unseen group values get ``default_gate`` (or the
    dict's explicit ``None`` entry)."""
    keys = [k for k in gates if k is not None]
    vals = np.array(
        [gates[k] for k in keys] + [gates.get(None, default_gate)], dtype=np.int64
    )
    idx = pc.fill_null(pc.index_in(col, value_set=pa.array(keys)), len(keys))
    return vals[np.asarray(idx)]


def hash_sample(
    ds: ray.data.Dataset, fraction: float, key_col: str = "doc_id", seed: int = 17
) -> ray.data.Dataset:
    """Keep ~``fraction`` of rows, chosen by key hash (deterministic,
    repeatable, layout-independent; no shuffle)."""
    gate = int(round(fraction * _BUCKETS))

    def keep(t: pa.Table) -> pa.Table:
        b = _key_buckets(t.column(key_col).combine_chunks(), seed)
        return t.filter(pa.array(b < gate))

    return ds.map_batches(keep, batch_format="pyarrow")


def stratified_sample(
    ds: ray.data.Dataset,
    group_col: str,
    fractions: Dict[str, float],
    key_col: str = "doc_id",
    seed: int = 17,
    default_fraction: float = 0.0,
) -> ray.data.Dataset:
    """Per-stratum deterministic hash sample: keep ~``fractions[group]`` of
    each group's rows (e.g. downsample dominant languages, keep all of rare
    ones). Same layout-independent shuffle-free hash gate as
    ``hash_sample``, but with a per-group threshold looked up from a small
    broadcast dict — no groupby, no extra pass. Groups absent from
    ``fractions`` keep ``default_fraction`` of rows.
    """
    for g, f in fractions.items():
        if not 0.0 <= f <= 1.0:
            raise ValueError(f"fraction for group {g!r} must be in [0, 1], got {f}")
    if not 0.0 <= default_fraction <= 1.0:
        raise ValueError(f"default_fraction must be in [0, 1], got {default_fraction}")
    gates = {g: int(round(f * _BUCKETS)) for g, f in fractions.items()}
    default_gate = int(round(default_fraction * _BUCKETS))

    def keep(t: pa.Table) -> pa.Table:
        b = _key_buckets(t.column(key_col).combine_chunks(), seed)
        gate = _gate_lookup(t.column(group_col), gates, default_gate)
        return t.filter(pa.array(b < gate))

    return ds.map_batches(keep, batch_format="pyarrow")


def hash_split(
    ds: ray.data.Dataset,
    fractions: Dict[str, float],
    key_col: str = "doc_id",
    seed: int = 17,
) -> ray.data.Dataset:
    """Assign every row to a named split by cumulative hash-bucket ranges
    (e.g. ``{"train": 0.8, "val": 0.1, "test": 0.1}``). Appends a ``split``
    column; fractions must sum to 1 (±1 bucket of rounding slack goes to
    the last split)."""
    total = sum(fractions.values())
    if not 0.999 <= total <= 1.001:
        raise ValueError(f"split fractions must sum to 1, got {total}")
    if any(not 0 < f <= 1 for f in fractions.values()):
        # a negative fraction offset by a >1 one passes the sum check but
        # produces unsorted bounds → silently wrong searchsorted labels
        raise ValueError(f"each split fraction must be in (0, 1], got {fractions}")
    names = list(fractions)
    bounds = np.cumsum([int(round(fractions[n] * _BUCKETS)) for n in names])
    bounds[-1] = _BUCKETS  # rounding slack → last split

    def assign(t: pa.Table) -> pa.Table:
        b = _key_buckets(t.column(key_col).combine_chunks(), seed)
        idx = np.searchsorted(bounds, b, side="right")
        return t.append_column("split", pa.array([names[i] for i in idx], pa.string()))

    return ds.map_batches(assign, batch_format="pyarrow")


def temperature_sample(
    ds: ray.data.Dataset,
    group_col: str = "source",
    key_col: str = "doc_id",
    alpha: float = 0.5,
    seed: int = 17,
) -> ray.data.Dataset:
    """Temperature-based source rebalancing (the multilingual-LM mixing
    rule: sample groups ∝ count^alpha, alpha<1 flattens dominant sources,
    alpha=1 is natural, alpha=0 uniform). Per-group keep rate
    ``min(1, N·w_g/c_g)`` with ``w_g = c_g^alpha / Σ c^alpha`` becomes a
    per-group integer bucket threshold ``floor(rate·10000)`` on the same
    hash gate as ``hash_sample`` — so the draw stays deterministic,
    layout-independent and shuffle-free after ONE tiny grouped count (the
    group cardinality table). SQL-reproducible end to end (pow/floor parity;
    the gate checks it at sf0.01)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")

    from pdftext_ray.ops.relational import hash_grouped_agg

    counts = hash_grouped_agg(
        ds.select_columns([group_col]), group_col, {"cnt": (group_col, "size")}
    ).take_all()
    c = {r[group_col]: float(r["cnt"]) for r in counts}
    n = sum(c.values())
    z = sum(np.power(v, alpha) for v in sorted(c.values()))
    gates = {
        g: int(np.floor(min(1.0, (n * np.power(v, alpha) / z) / v) * _BUCKETS))
        for g, v in c.items()
    }

    def keep(t: pa.Table) -> pa.Table:
        b = _key_buckets(t.column(key_col).combine_chunks(), seed)
        gate = _gate_lookup(t.column(group_col), gates, default_gate=0)
        return t.filter(pa.array(b < gate))

    return ds.map_batches(keep, batch_format="pyarrow")


def weighted_sample(
    ds: ray.data.Dataset,
    k: int,
    weight_col: str,
    key_col: str = "doc_id",
    seed: int = 17,
) -> ray.data.Dataset:
    """Deterministic weighted sample WITHOUT replacement of exactly ``k``
    rows (Efraimidis–Spirakis 2006 exponential races): each row gets a
    priority ``ln(u) / w`` with ``u`` a deterministic uniform drawn from the
    key hash, and the k LARGEST priorities win — inclusion probability
    proportional to weight, no shuffle of the full corpus, no RNG state.

    Determinism contract (what makes the draw layout-independent AND
    SQL-reproducible bit-for-bit, verified at sf0.001/0.01/0.1):

    * ``u = (((key + seed) * K mod 2^64) >> 12 + 1) / 2^52`` — a 52-bit
      uniform in (0, 1], exact in a double;
    * ``priority = floor(ln(u) / w * 2^32)`` as int64 — the QUANTIZED race
      key. ln() may differ by 1 ulp across libm implementations; the 2^32
      grid makes a flip require the pre-floor value to sit within ~2^-32
      relative of a grid line (never observed on the test tables; the
      quantization IS the operator contract, not a convenience);
    * ties (same grid cell) break by ascending key;
    * priorities saturate at -2^62 (weights under ~2e-9 would overflow the
      int64 grid); the SQL mirror omits the clamp because it only engages
      ~14 orders of magnitude below any realistic length/score weight.

    Plan: one vectorized ``map_batches`` computes priorities and emits only
    its LOCAL top-k (≤ k rows per block leave the node), then a small
    ``sort().limit(k)`` finalizes — the same local-head/global-head shape as
    ops/similarity.brute_force_topk. Output: (key_col, weight_col,
    priority), ordered by (priority desc, key asc).
    """
    if k <= 0:
        raise ValueError(f"k must be positive, got {k}")

    def local_topk(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).combine_chunks()
        if pa.types.is_integer(keys.type):
            raw = np.asarray(keys)
            if len(raw) and raw.min() < 0:
                raise ValueError("weighted_sample requires non-negative integer keys")
            h52 = ((raw.astype(np.uint64) + np.uint64(seed)) * np.uint64(_K)) >> np.uint64(12)
            u = (h52.astype(np.float64) + 1.0) / float(1 << 52)
        else:
            u = (
                np.array(
                    [
                        int(hashlib.md5(f"{v}{seed}".encode("utf-8")).hexdigest()[:13], 16)
                        for v in keys.to_pylist()
                    ],
                    dtype=np.float64,
                )
                + 1.0
            ) / float(1 << 52)
        w = np.asarray(t.column(weight_col).combine_chunks(), dtype=np.float64)
        if len(w) and (not np.all(np.isfinite(w)) or w.min() <= 0):
            raise ValueError(f"{weight_col} must be finite and > 0 for weighted sampling")
        # saturate at -2^62 BEFORE the int cast: weights below ~2e-9 would
        # otherwise overflow int64 (numpy float→int64 overflow yields
        # INT64_MIN, whose negation in lexsort wraps back to INT64_MIN and
        # silently sorts the near-zero-weight rows FIRST). Saturated rows
        # tie at the floor and resolve by ascending key — documented
        # behavior for weights at the edge of double range.
        q = np.floor(
            np.clip(np.log(u) / w * 4294967296.0, -float(2**62), 0.0)
        ).astype(np.int64)
        take = min(k, len(q))
        idx = np.lexsort((np.asarray(keys), -q))[:take]
        return pa.table({
            key_col: keys.take(pa.array(idx, pa.int64())),
            weight_col: t.column(weight_col).combine_chunks().take(pa.array(idx, pa.int64())),
            "priority": pa.array(q[idx], pa.int64()),
        })

    local = ds.select_columns([key_col, weight_col]).map_batches(
        local_topk, batch_format="pyarrow"
    )
    return local.sort(["priority", key_col], descending=[True, False]).limit(k)


def group_cap(
    ds: ray.data.Dataset,
    cap: int,
    group_col: str = "source",
    key_col: str = "doc_id",
    seed: int = 17,
) -> ray.data.Dataset:
    """Per-group quota sampling: keep at most ``cap`` rows per group — the
    'at most N documents per domain/host' curation rule (C4/RefinedWeb-style
    host caps). Which rows survive is deterministic and layout-independent:
    the ``cap`` smallest ``(hash32(key), key)`` per group, i.e. a seeded
    uniform draw without an RNG, mirrorable in SQL as
    ``row_number() OVER (PARTITION BY group ORDER BY hash32(key), key) <= cap``.

    Plan: ONE few-partition hash shuffle on hash(group) co-locates every
    group (group cardinality may be corpus-sized — millions of hosts — so
    per-distinct-key aggregates are out, CLAUDE.md invariant 9), then a
    single vectorized sort + cumcount head per partition. Only
    (key, group, h) triples move. Output: (key_col, group_col, group_rank)
    with group_rank 1-based in hash order.
    """
    import pandas as pd

    from pdftext_ray.ops.exchange import by_key

    if cap <= 0:
        raise ValueError(f"cap must be positive, got {cap}")

    def tag(t: pa.Table) -> pa.Table:
        col_k = t.column(key_col).combine_chunks()
        return pa.table({
            key_col: col_k,
            group_col: t.column(group_col).combine_chunks(),
            "_h": pa.array(_key_hash32(col_k, seed), pa.int64()),
        })

    def head(g: pd.DataFrame):
        g = g.sort_values([group_col, "_h", key_col], kind="mergesort")
        r = g.groupby(group_col, sort=False).cumcount().to_numpy() + 1
        keep = r <= cap
        return pd.DataFrame({
            key_col: g[key_col].to_numpy()[keep],
            group_col: g[group_col].to_numpy()[keep],
            "group_rank": r[keep].astype(np.int64),
        })

    tagged = ds.select_columns([key_col, group_col]).map_batches(tag, batch_format="pyarrow")
    return by_key((tagged, group_col), head)


def _key_hash32(col, seed: int) -> np.ndarray:
    """Per-row 32-bit hash (the PRE-modulo value behind ``_key_buckets``) —
    the sort key for deterministic global shuffling. Same SQL parity story:
    integer keys ``(((k + seed) * K) % 2^64) // 2^32``, string keys the
    first 8 md5 hex digits."""
    if pa.types.is_integer(col.type):
        raw = np.asarray(col)
        if len(raw) and raw.min() < 0:
            raise ValueError("hash shuffling requires non-negative integer keys")
        ids = raw.astype(np.uint64)
        return (((ids + np.uint64(seed)) * np.uint64(_K)) >> np.uint64(32)).astype(np.int64)
    return np.array(
        [int(hashlib.md5(f"{v}{seed}".encode("utf-8")).hexdigest()[:8], 16) for v in col.to_pylist()],
        dtype=np.int64,
    )


def shuffle_rank(
    ds: ray.data.Dataset,
    key_col: str = "doc_id",
    seed: int = 17,
    n_parts: int = None,
) -> ray.data.Dataset:
    """Deterministic global shuffle ORDER for training data: each row's
    ``shuffle_rank`` is its position in the corpus sorted by
    ``(hash32(key), key)`` — a reproducible, layout-independent permutation
    (unlike ``Dataset.random_shuffle``, whose draw depends on task layout,
    this one is a pure function of keys and survives re-runs/resumes).

    Plan is the distributed-sort counting form: hash values are uniform, so
    RANGE-partitioning the 32-bit hash space gives balanced parts for free —
    per-part counts (per-block bincounts summed on the driver, no
    exchange) → driver exclusive scan → one P-key
    shuffle and a vectorized per-part argsort. Only (key, h) pairs move.
    Output: (key_col, shuffle_rank), both int64/original type.
    """
    from pdftext_ray.ops import default_num_partitions
    from pdftext_ray.ops.exchange import by_key, part_totals

    keys = ds.select_columns([key_col]).materialize()
    if n_parts is None:
        # materialized key projection → free count sizes the rank shuffle
        n_parts = default_num_partitions(rows=keys.count())

    def tag(t: pa.Table) -> pa.Table:
        col = t.column(key_col).combine_chunks()
        h = _key_hash32(col, seed)
        return pa.table({key_col: col, "_h": pa.array(h, pa.int64())})

    def range_part(t: pa.Table) -> np.ndarray:
        return t.column("_h").to_numpy() * n_parts // (1 << 32)

    narrow = keys.map_batches(tag, batch_format="pyarrow").materialize()
    base = np.concatenate([[0], np.cumsum(part_totals(narrow, range_part, n_parts))])

    import pandas as pd

    def rank(g: pd.DataFrame):
        g = g.sort_values(["_h", key_col], kind="mergesort")
        start = base[int(g["_h"].iat[0]) * n_parts // (1 << 32)]
        return pd.DataFrame({
            key_col: g[key_col].to_numpy(),
            "shuffle_rank": start + np.arange(len(g), dtype=np.int64),
        })

    return by_key((narrow, range_part), rank)
