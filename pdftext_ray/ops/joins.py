"""Join operators — the lookup patterns a corpus pipeline needs.

The reference has no relational joins (SURVEY.md §2.4: only the per-page
spatial argmax join J1/J2 and the positional zip J5); these are the
engine-side additions, built on the two scale-correct plans from the Ray
guide:

* **broadcast join** — small side shipped ONCE via ``ray.put`` and merged
  per batch inside ``map_batches``; zero shuffle. Right whenever one side
  fits in a worker's heap (dimension tables, vocabularies, blocklists).
* **partitioned hash join** — both sides large: a two-sided
  ``exchange.by_key`` co-partitions them on ``hash(key) % B`` and joins
  bucket-pairs per part. Salt hot keys into sub-buckets when a single key
  exceeds a worker's memory.
* **as-of join** — sort-within-bucket + ``pd.merge_asof`` per key group
  (backward: greatest right.ts ≤ left.ts), the streaming-log lookup pattern.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from pdftext_ray.ops import from_pandas_clean, probe
from pdftext_ray.ops.exchange import _bucket_array, by_key


def broadcast_join(
    large: ray.data.Dataset,
    small: pa.Table,
    left_key: str,
    right_key: str,
    how: str = "inner",
) -> ray.data.Dataset:
    """Join a large Dataset against a small in-memory table (broadcast once).

    Only inner/left are valid under per-batch broadcast semantics: a right or
    outer merge would re-emit every unmatched right-side row once per batch.
    """
    if how not in ("inner", "left"):
        raise ValueError(f"broadcast_join supports how='inner'|'left', got {how!r}")
    small_df = small.to_pandas()
    ref = ray.put(small_df)

    class _Merge:
        """Actor-pool merger: the broadcast frame is ray.get ONCE per actor
        in __init__, not once per batch (plasma makes the bytes cheap on a
        node; the pandas deserialization per batch is not — VERDICT r3 item
        5). The ref arrives via fn_constructor_args so actor restart stays
        possible (no ObjectRef closure capture)."""

        def __init__(self, broadcast_ref):
            self.rhs = ray.get(broadcast_ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(self.rhs, left_on=left_key, right_on=right_key, how=how)

    from pdftext_ray.ops import default_num_partitions

    return large.map_batches(
        _Merge, batch_format="pandas",
        concurrency=(1, default_num_partitions()),
        fn_constructor_args=(ref,),
    )


def partitioned_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    num_buckets: int = 8,
    left_cols: Optional[List[str]] = None,
    right_cols: Optional[List[str]] = None,
) -> ray.data.Dataset:
    """Inner hash join of two large Datasets.

    Uses Ray Data's native hash-partitioned ``Dataset.join`` (Ray ≥ 2.46):
    both sides are pre-projected so the shuffle carries only the needed
    columns, then co-partitioned on the key into ``num_buckets`` partitions.
    (On Ray versions without ``Dataset.join``, the portable pattern is:
    tag both sides with ``bucket = hash(key) % B`` over a COMMON schema,
    union, and merge per bucket in ``map_groups``.)
    """
    if left_cols:
        left = left.select_columns(list(left_cols))
    if right_cols:
        right = right.select_columns(list(right_cols))
    return left.join(
        right,
        join_type="inner",
        num_partitions=num_buckets,
        on=(left_key,),
        right_on=(right_key,),
    )


class BloomFilter:
    """Plain numpy Bloom filter — the broadcast side for semi/anti joins when
    the exact key set is too large to ship (guide: 'broadcast the key set
    (or a Bloom filter of it)'). Deterministic double hashing; false-positive
    rate ≈ (1 - e^{-kn/m})^k."""

    def __init__(self, keys, bits_per_key: int = 12, num_hashes: int = 4):
        n = max(len(keys), 1)
        self.m = n * bits_per_key
        self.k = num_hashes
        self.bits = np.zeros((self.m + 63) // 64, dtype=np.uint64)
        for key in keys:
            for pos in self._positions(key):
                self.bits[pos >> 6] |= np.uint64(1 << (pos & 63))

    def _positions(self, key):
        import hashlib

        d = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        h1 = int.from_bytes(d[:8], "big")
        h2 = int.from_bytes(d[8:], "big") | 1
        return [((h1 + i * h2) % self.m) for i in range(self.k)]

    def __contains__(self, key) -> bool:
        return all(
            self.bits[p >> 6] & np.uint64(1 << (p & 63)) for p in self._positions(key)
        )


def _arrow_types(ds: ray.data.Dataset) -> dict:
    """{col: pa.DataType} from a Dataset's schema. Arrow-backed datasets
    report pyarrow types directly; pandas-backed blocks report numpy dtypes
    (object ≙ string) — normalize both."""
    sch = ds.schema()
    out = {}
    for name, t in zip(sch.names, sch.base_schema.types):
        if isinstance(t, pa.DataType):
            out[name] = t
        else:
            dt = np.dtype(t)
            out[name] = pa.string() if dt == np.dtype(object) else pa.from_numpy_dtype(dt)
    return out


def salted_hash_join(
    left: ray.data.Dataset,
    right: ray.data.Dataset,
    left_key: str,
    right_key: str,
    salt_col: str,
    left_cols: List[str],
    right_cols: List[str],
    hot_threshold: int = 100_000,
    num_salts: int = 8,
    num_buckets: Optional[int] = None,
    how: str = "inner",
) -> ray.data.Dataset:
    """Skew-defusing inner (or left outer) hash join — the salted-key pattern for hot keys
    that would otherwise pile one partition ('salt hot keys', Ray guide /
    SURVEY §2.4 scale notes):

    1. Hot-key detection: batch-local partial key counts → one keyed merge
       (count-cardinality traffic) → keys with ≥ ``hot_threshold`` left
       rows (a bounded collect BY DEFINITION: at most n_rows/threshold).
    2. Left hot rows get ``_salt = hash(salt_col) % S`` — salted by a
       per-ROW value, so the assignment is deterministic and
       layout-independent (a positional salt would not be). Cold rows salt 0.
    3. Right hot rows are REPLICATED S times (one per salt), so every
       (key, salt) sub-bucket holds the full right payload for its key;
       cold rows ship once.
    4. Both sides meet per hash(key)·S+salt bucket in one two-sided
       ``exchange.by_key`` and merge with one vectorized ``pd.merge`` —
       the empty-robust co-partitioned plan (Acero ``Dataset.join`` builds
       column-less tables for empty partitions).

    The result equals the unsalted inner join exactly; only the partition
    layout changes. ``salt_col`` must be a left column with high
    per-hot-key cardinality (a row id).
    """
    import pyarrow.compute as pc

    from pdftext_ray.ops import default_num_partitions
    from pdftext_ray.ops.relational import hash_grouped_agg

    if how not in ("inner", "left"):
        raise ValueError(f"how must be 'inner' or 'left', got {how!r}")
    if num_buckets is None:
        num_buckets = default_num_partitions()
    left = left.select_columns(list(dict.fromkeys([*left_cols, left_key, salt_col])))
    right = right.select_columns(list(dict.fromkeys([*right_cols, right_key])))
    ltypes = _arrow_types(left)
    rtypes = _arrow_types(right)
    for label, typ in (("left_key", ltypes[left_key]), ("right_key", rtypes[right_key]),
                       ("salt_col", ltypes[salt_col])):
        if not pa.types.is_integer(typ):
            raise TypeError(
                f"salted_hash_join requires integer {label} (got {typ}); hash "
                "string keys to int64 upstream (e.g. ops.dedup's bucket hash)"
            )

    def count_partial(t: pa.Table) -> pa.Table:
        g = t.select([left_key]).to_pandas().groupby(left_key, as_index=False).size()
        g.columns = [left_key, "n"]
        return from_pandas_clean(g)

    counts = hash_grouped_agg(
        left.map_batches(count_partial, batch_format="pyarrow"),
        left_key, {"n": ("n", "sum")},
    )

    def hot_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.greater_equal(t.column("n"), hot_threshold)).select([left_key])

    hot = np.sort(
        np.asarray(
            [r[left_key] for r in counts.map_batches(hot_only, batch_format="pyarrow").take_all()],
            dtype=np.int64,
        )
    )
    hot_ref = ray.put(hot)

    # common output schema: left cols + right cols (minus the join key dup)
    out_right_cols = [c for c in right_cols if c != right_key]
    all_cols = [(c, ltypes[c]) for c in left_cols] + [(c, rtypes[c]) for c in out_right_cols]

    def is_hot(keys: np.ndarray) -> np.ndarray:
        return probe.member_sorted(keys, ray.get(hot_ref))

    def salt_left(t: pa.Table) -> pa.Table:
        keys = t.column(left_key).to_numpy(zero_copy_only=False).astype(np.int64)
        sv = t.column(salt_col).to_numpy(zero_copy_only=False).astype(np.int64)
        salt = np.where(is_hot(keys), (sv.astype(np.uint64) * _BLOOM_P1 >> np.uint64(32)).astype(np.int64) % num_salts, 0)
        return t.append_column("_salt", pa.array(salt, pa.int64()))

    def salt_right(t: pa.Table) -> pa.Table:
        keys = t.column(right_key).to_numpy(zero_copy_only=False).astype(np.int64)
        reps = np.where(is_hot(keys), num_salts, 1).astype(np.int64)
        idx = np.repeat(np.arange(len(t)), reps)
        # salt sequence 0..reps-1 within each replicated row
        salt = (np.arange(len(idx)) - np.repeat(np.cumsum(reps) - reps, reps)).astype(np.int64)
        return t.take(pa.array(idx)).append_column("_salt", pa.array(salt, pa.int64()))

    def salted_part(key: str):
        return lambda t: _bucket_array(t.column(key), num_buckets) * num_salts + np.asarray(t.column("_salt"))

    def side_schema(cols, types, key):
        # the join key is int64 on both sides, so its buckets agree
        return pa.schema([(c, types[c]) for c in cols if c != key]
                         + [(key, pa.int64()), ("_salt", pa.int64())])

    def merge(g: dict):
        out = g["left"].merge(g["right"], left_on=[left_key, "_salt"],
                              right_on=[right_key, "_salt"], how=how)
        if how == "left":
            # unmatched rows: keep right INT columns int64-with-nulls, not
            # the float64 NaN promotion pandas defaults to
            for c in out_right_cols:
                if pa.types.is_integer(dict(all_cols)[c]):
                    out[c] = out[c].astype("Int64")
        # type EVERY output column explicitly (CLAUDE.md invariant 12): an
        # empty bucket (no key matches) or an all-null right column (left
        # join, no right rows in the bucket) would otherwise infer Arrow
        # type null and break schema unification across blocks
        return pa.Table.from_arrays(
            [pa.Array.from_pandas(out[c], type=typ) for c, typ in all_cols],
            names=[c for c, _ in all_cols],
        )

    return by_key({
        "left": (left.map_batches(salt_left, batch_format="pyarrow"), salted_part(left_key),
                 side_schema(left_cols, ltypes, left_key)),
        "right": (right.map_batches(salt_right, batch_format="pyarrow"), salted_part(right_key),
                  side_schema(out_right_cols, rtypes, right_key)),
    }, merge)


# Multiplicative double-hash constants for the DISTRIBUTED bloom filter —
# Fibonacci hashing prime + the xxhash64 prime 2 (both public constants).
# Chosen over blake2b (the driver-side BloomFilter above) because the whole
# hash is HUGEINT-expressible, so a DuckDB oracle reproduces membership —
# INCLUDING the false positives — bit-for-bit.
_BLOOM_P1 = np.uint64(11400714819323198485)
_BLOOM_P2 = np.uint64(14029467366897019727)


def _bloom_positions(keys: np.ndarray, m_bits: int, num_hashes: int) -> np.ndarray:
    """(n, k) bit positions by double hashing: pos_i = (h1 + i·(2·h2+1)) % m
    with h1/h2 the top-32-bits of two multiplicative hashes. The 2·h2+1 step
    is always odd (full-period for power-of-two m) without bitwise-or — SQL
    replicates it as plain arithmetic. All intermediates < 2³⁵, so uint64
    numpy and HUGEINT SQL agree exactly (no wrap on either side)."""
    x = keys.astype(np.int64).astype(np.uint64)
    h1 = (x * _BLOOM_P1 >> np.uint64(32)).astype(np.int64)
    step = 2 * (x * _BLOOM_P2 >> np.uint64(32)).astype(np.int64) + 1
    return (h1[:, None] + np.arange(num_hashes)[None, :] * step[:, None]) % m_bits


def distributed_bloom_bits(
    ds: ray.data.Dataset,
    key_col: str,
    m_bits: int = 1 << 16,
    num_hashes: int = 4,
) -> np.ndarray:
    """Build a Bloom bitmap over an int key column DISTRIBUTED: each block
    emits its own m-bit partial bitmap (vectorized unbuffered bitwise-or),
    partials OR-merge to one bitmap. The merge is associative+commutative —
    layout-independent by construction — and what crosses the wire is
    #blocks × m/8 bytes, never keys (the sketch pattern: build cost scales
    with data, result size with m only). Returns the m/64-word uint64 array.
    """
    words = (m_bits + 63) // 64

    def partial(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).to_numpy(zero_copy_only=False)
        bits = np.zeros(words, dtype=np.uint64)
        if len(keys):
            pos = _bloom_positions(keys, m_bits, num_hashes).ravel()
            np.bitwise_or.at(bits, pos >> 6, np.uint64(1) << (pos & 63).astype(np.uint64))
        return pa.table({"bits": pa.array([bits.tobytes()], pa.binary())})

    def merge(t: pa.Table) -> pa.Table:
        acc = np.zeros(words, dtype=np.uint64)
        for blob in t.column("bits").to_pylist():
            acc |= np.frombuffer(blob, dtype=np.uint64)
        return pa.table({"bits": pa.array([acc.tobytes()], pa.binary())})

    merged = (
        ds.map_batches(partial, batch_format="pyarrow")
        .repartition(1)
        .map_batches(merge, batch_format="pyarrow", batch_size=None)
        .take_all()
    )
    if not merged:  # zero-batch input (empty dataset): nothing is a member
        return np.zeros(words, dtype=np.uint64)
    return np.frombuffer(merged[0]["bits"], dtype=np.uint64).copy()


def bloom_semi_join(
    large: ray.data.Dataset,
    bloom_bits: np.ndarray,
    key_col: str,
    m_bits: int,
    num_hashes: int = 4,
) -> ray.data.Dataset:
    """Keep large-side rows whose key the Bloom bitmap admits (set semantics
    plus the filter's deterministic false positives — a PRE-filter at true
    scale, exact-oracle-checkable here because the hash family is
    SQL-replicable). Bitmap broadcast once via ``ray.put``; membership test
    is one vectorized gather + AND-reduce per batch."""
    ref = ray.put(bloom_bits)

    def fn(batch: pa.Table) -> pa.Table:
        bits = ray.get(ref)
        keys = batch.column(key_col).to_numpy(zero_copy_only=False)
        if len(keys) == 0:
            return batch
        pos = _bloom_positions(keys, m_bits, num_hashes)
        member = np.all(
            bits[pos >> 6] & (np.uint64(1) << (pos & 63).astype(np.uint64)) != 0, axis=1
        )
        return batch.filter(pa.array(member, pa.bool_()))

    return large.map_batches(fn, batch_format="pyarrow")


def semi_join(
    large: ray.data.Dataset,
    keys,
    key_col: str,
    anti: bool = False,
    use_bloom: bool = False,
) -> ray.data.Dataset:
    """Semi (or anti) join: keep large-side rows whose key is (not) in the
    broadcast key set. Exact by default; ``use_bloom=True`` ships a Bloom
    filter instead — semi joins then admit ~FP-rate extra rows and anti joins
    drop them, so bloom mode is a PRE-filter to follow with an exact pass at
    true scale (documented tradeoff)."""
    import pyarrow.compute as pc

    # normalize numpy scalars etc. to plain Python values so Bloom hashing of
    # repr(key) matches the probe values (to_pylist yields Python scalars)
    key_list = sorted({k.item() if hasattr(k, "item") else k for k in keys})

    if use_bloom:
        ref = ray.put(BloomFilter(key_list))

        def fn(batch: pa.Table) -> pa.Table:
            bloom = ray.get(ref)
            mask = [(k in bloom) != anti for k in batch.column(key_col).to_pylist()]
            return batch.filter(pa.array(mask, type=pa.bool_()))
    else:
        ref = ray.put(pa.array(key_list))

        def fn(batch: pa.Table) -> pa.Table:
            hit = pc.is_in(batch.column(key_col), value_set=ray.get(ref))
            return batch.filter(pc.invert(hit) if anti else hit)

    return large.map_batches(fn, batch_format="pyarrow")


def range_join_events(
    ds: ray.data.Dataset,
    left_type: str = "purchase",
    right_type: str = "click",
    key: str = "user_id",
    ts: str = "ts",
    window_sec: int = 6 * 3600,
) -> ray.data.Dataset:
    """Keyed interval (range) join inside one event log: every pair
    (left, right) with the same key whose right event falls in the half-open
    window ``[left.ts - window, left.ts)`` — the attribution-window lookup
    (`clicks in the 6h before each purchase`). The reference has no joins at
    all (SURVEY.md §2.4); this is the engine-side range-join operator the
    brief names alongside as-of.

    Plan (scale-correct, key-cardinality independent): filter to the two
    types vectorized, ONE few-partition shuffle on hash(key), then per
    partition a single vectorized pass: factorize keys, build a composite
    ``code * span + (ts - t0)`` int64 sort key for the right side, and
    ``np.searchsorted`` both window edges for ALL left rows at once; pairs
    materialize via the repeat/arange range-expansion trick — no Python loop
    over rows or keys. Skew note: a single hot key's pairs are emitted from
    one partition; salt the key into sub-buckets (split the window) if one
    key's output exceeds a worker's heap.

    Output: event_id, user_id, ts, matched_event_id, matched_ts (one row per
    qualifying pair, inner semantics).
    """
    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("event_type"), value_set=pa.array([left_type, right_type]))
        return batch.filter(mask)

    empty = pd.DataFrame(
        {
            "event_id": pd.Series([], dtype="int64"),
            key: pd.Series([], dtype="int64"),
            ts: pd.Series([], dtype="datetime64[us]"),
            "matched_event_id": pd.Series([], dtype="int64"),
            "matched_ts": pd.Series([], dtype="datetime64[us]"),
        }
    )

    def per_part(group: pd.DataFrame) -> pd.DataFrame:
        lhs = group[group["event_type"] == left_type]
        rhs = group[group["event_type"] == right_type]
        if lhs.empty or rhs.empty:
            return empty
        w_us = np.int64(window_sec) * 1_000_000
        lt = lhs[ts].to_numpy().astype("datetime64[us]").astype(np.int64)
        rt = rhs[ts].to_numpy().astype("datetime64[us]").astype(np.int64)
        t0 = min(lt.min(), rt.min())
        span = max(lt.max(), rt.max()) - t0 + w_us + 2
        codes, uniques = pd.factorize(
            pd.concat([lhs[key], rhs[key]], ignore_index=True), sort=True
        )
        lcode, rcode = codes[: len(lhs)], codes[len(lhs):]
        rkey = rcode * span + (rt - t0)
        order = np.argsort(rkey, kind="stable")
        rkey = rkey[order]
        r_event = rhs["event_id"].to_numpy()[order]
        r_ts = rhs[ts].to_numpy()[order]
        # [ts - w, ts): left-inclusive lower edge, exclusive upper edge
        lo = np.searchsorted(rkey, lcode * span + np.maximum(lt - w_us - t0, 0), side="left")
        hi = np.searchsorted(rkey, lcode * span + (lt - t0), side="left")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        l_idx = np.repeat(np.arange(len(lhs)), counts)
        r_idx = np.arange(total) - np.repeat(counts.cumsum() - counts, counts) + np.repeat(lo, counts)
        out = pd.DataFrame(
            {
                "event_id": lhs["event_id"].to_numpy()[l_idx],
                key: lhs[key].to_numpy()[l_idx],
                ts: lhs[ts].to_numpy()[l_idx],
                "matched_event_id": r_event[r_idx],
                "matched_ts": r_ts[r_idx],
            }
        )
        return out

    return by_key((ds.map_batches(keep, batch_format="pyarrow"), key), per_part)


def asof_join_events(
    ds: ray.data.Dataset,
    left_type: str = "purchase",
    right_type: str = "click",
    key: str = "user_id",
    ts: str = "ts",
) -> ray.data.Dataset:
    """As-of join inside one event log: for each ``left_type`` event, the
    most recent ``right_type`` event by the same key at-or-before its
    timestamp (backward inclusive; unmatched left rows dropped — inner
    semantics, mirroring SQL ASOF JOIN).

    Plan: filter to the two types (vectorized), ONE few-partition shuffle on
    hash(key), then one ``pd.merge_asof(..., by=key)`` per partition — the
    grouped as-of runs vectorized over every co-located key at once instead
    of a per-distinct-key map_groups (Ray's ~65 µs/key overhead makes that
    form key-cardinality-bound). Output columns: event_id, user_id, ts,
    value, matched_event_id, matched_ts, matched_value.
    """
    import pyarrow.compute as pc

    def keep(batch: pa.Table) -> pa.Table:
        mask = pc.is_in(batch.column("event_type"), value_set=pa.array([left_type, right_type]))
        return batch.filter(mask)

    def per_part(group: pd.DataFrame) -> pd.DataFrame:
        lhs = group[group["event_type"] == left_type].sort_values(ts)
        rhs = group[group["event_type"] == right_type].sort_values(ts)
        if lhs.empty or rhs.empty:
            return pd.DataFrame(
                columns=["event_id", key, ts, "value", "matched_event_id", "matched_ts", "matched_value"]
            )
        merged = pd.merge_asof(
            lhs[["event_id", key, ts, "value"]],
            rhs[[key, "event_id", ts, "value"]].rename(
                columns={"event_id": "matched_event_id", ts: "matched_ts", "value": "matched_value"}
            ),
            left_on=ts,
            right_on="matched_ts",
            by=key,
            direction="backward",
        )
        merged = merged.dropna(subset=["matched_event_id"])
        merged["matched_event_id"] = merged["matched_event_id"].astype("int64")
        return merged

    return by_key((ds.map_batches(keep, batch_format="pyarrow"), key), per_part)
