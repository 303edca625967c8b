"""The op layer's one keyed exchange: :func:`by_key`.

Every op that must co-locate rows by a key (hash-grouped aggregates,
per-key windows, bucket scans, pair counts, join-backs) goes through
:func:`by_key`. It does the four steps each op once hand-rolled:

1. tags every block with an int64 part (``hash(key) % n_parts``, a pair
   hash, or a caller's part function) and strips its schema metadata
   (invariant 8); zero-row and column-less blocks carry no row into any
   part, so ``fn`` never sees their blank schema (invariants 7 and 12);
2. shuffles with Ray's sort-shuffle ``groupby`` and runs ``map_groups``
   once per part;
3. for a join-back, splits the union's sides in Arrow before any pandas
   conversion, so the padding nulls of one side never reach pandas and an
   int64 id past 2^53 is never coerced to float64 (invariant 16);
4. types the output: a frame goes through ``from_pandas_clean``, a table
   loses its metadata.

One plan, no strategy knob. Measured on Ray 2.49 (4 input blocks, 8 parts,
median of 5, 1 CPU): a map pass alone costs 0.10 s at 1k rows and 0.12 s at
200k; this exchange costs 0.30 s at 1k rows, 0.33 s at 200k and 0.89 s at
2M, the same at 2 logical CPUs. Shipping each (block, part) as one Arrow
IPC row and sorting those rows gave equal outputs at 0.30 / 0.37 / 0.99 s.
``ShuffleStrategy.HASH_SHUFFLE`` at 2 logical CPUs took 4.2-5.0 s for
``repartition(keys=...)`` and did not finish ``groupby().map_groups`` in
300 s; at 1 CPU it made no progress for over 10 minutes. So the sort
shuffle stays.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data
from ray.data.block import BlockAccessor

from pdftext_ray.ops import default_num_partitions, from_pandas_clean

_PART = "_part"
_SIDE = "_side"


def _bucket_of(v, num_buckets: int) -> int:
    """Deterministic bucket for co-partitioning (stable across sides/types)."""
    return int.from_bytes(hashlib.blake2b(repr(v).encode(), digest_size=8).digest(), "big") % num_buckets


def _pair_part_array(t: pa.Table, a_col: str, b_col: str, num_buckets: int) -> np.ndarray:
    """Vectorized deterministic partition for PAIR rows. Both ids multiply
    by odd constants before the xor so both reach the kept high bits
    (a raw/offset second id only perturbs bits the >>32 discards — the
    partition would degenerate to hash(id_a), funneling every hot-doc pair
    into one task)."""
    if len(t) and pa.types.is_integer(t.schema.field(a_col).type):
        a = np.asarray(t.column(a_col)).astype(np.uint64)
        b = np.asarray(t.column(b_col)).astype(np.uint64)
        mixed = (a * np.uint64(0x9E3779B97F4A7C15)) ^ (b * np.uint64(0xC2B2AE3D27D4EB4F))
        return ((mixed >> np.uint64(32)) % np.uint64(num_buckets)).astype(np.int64)
    return np.array(
        [
            _bucket_of((x, y), num_buckets)
            for x, y in zip(t.column(a_col).to_pylist(), t.column(b_col).to_pylist())
        ],
        dtype=np.int64,
    )


def _bucket_array(col, num_buckets: int) -> np.ndarray:
    """Vectorized deterministic buckets for a key column.

    Integer keys take a numpy Fibonacci-hash fast path; other types fall
    back to pandas' vectorized siphash. Both sides of a co-partitioned
    merge see the same arrow type, so the dispatch is consistent across
    sides.
    """
    if isinstance(col, pa.ChunkedArray):
        col = col.combine_chunks()
    typ = col.type
    if col.null_count:
        # nulls partition deterministically with the zero/empty sentinel —
        # a partition key only needs run-internal consistency; the GROUP key
        # stays the true (possibly null) value downstream
        col = col.fill_null(0 if pa.types.is_integer(typ) else "")
    if pa.types.is_integer(typ):
        ids = np.asarray(col).astype(np.uint64)
        return (((ids * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(32)) % np.uint64(num_buckets)).astype(np.int64)
    # strings: pandas' C siphash (vectorized) — run-internally consistent,
    # which is all a partition key needs (~10× a per-row blake2b loop)
    vals = np.asarray(col.to_pylist(), dtype=object)
    return (pd.util.hash_array(vals) % np.uint64(num_buckets)).astype(np.int64)


def _part_fn(key, n_parts: int):
    """``table -> int64 part array`` for the three key forms: a column name,
    a pair of columns, or a part function the caller computes itself."""
    if callable(key):
        return key
    if isinstance(key, str):
        return lambda t: _bucket_array(t.column(key), n_parts)
    a, b = key
    return lambda t: _pair_part_array(t, a, b, n_parts)


def _union_schema(schemas) -> pa.Schema:
    fields = {}
    for schema in schemas:
        for f in schema:
            if fields.setdefault(f.name, f.type) != f.type:
                raise TypeError(
                    f"by_key: column {f.name!r} is {fields[f.name]} on one side "
                    f"and {f.type} on another; give the sides one type"
                )
    return pa.schema(list(fields.items()))


def _typed_out(out):
    if isinstance(out, pd.DataFrame):
        return from_pandas_clean(out)
    return out.replace_schema_metadata(None)


def part_totals(ds: ray.data.Dataset, part_of, n_parts: int, weight_col: str = None) -> np.ndarray:
    """Rows (or the int64 sum of ``weight_col``) per part ``0..n_parts-1``,
    where ``part_of(table)`` is a range-part function of the kind
    :func:`by_key` takes. Per-block ``np.add.at`` partials summed on the
    driver: a range plan needs only P totals for its exclusive scan, so it
    pays no exchange for them."""

    def partial(t: pa.Table) -> pa.Table:
        n = np.zeros(n_parts, np.int64)
        if t.num_rows:
            w = 1 if weight_col is None else t.column(weight_col).to_numpy().astype(np.int64)
            np.add.at(n, part_of(t), w)
        return pa.table({"p": np.arange(n_parts, dtype=np.int64), "n": n})

    total = np.zeros(n_parts, np.int64)
    for b in ds.map_batches(partial, batch_format="pyarrow", batch_size=None).iter_batches(
            batch_format="pyarrow", batch_size=None):
        if b.num_rows:
            np.add.at(total, b.column("p").to_numpy(), b.column("n").to_numpy())
    return total


def by_key(inputs, fn, n_parts: int = None) -> ray.data.Dataset:
    """Co-locate rows by key and run ``fn`` once per part.

    ``inputs`` is ``(ds, key)`` for one input, or ``{side: (ds, key,
    schema)}`` for a join-back whose sides are partitioned together. A key
    is a column name (hashed), a ``(col_a, col_b)`` pair (pair-hashed) or a
    function ``table -> int64 part array`` (range parts, salted buckets).
    ``n_parts`` (default :func:`ops.default_num_partitions`) sets the
    hashed keys' part count.

    ``fn`` gets the part's rows as one pandas frame, or as ``{side: frame}``
    holding every declared column of every side (a side with no rows in the
    part gets a typed empty frame), and returns a DataFrame or a
    ``pa.Table``. Each side's blocks are cast to its declared ``pa.Schema``
    and padded with typed nulls to the union of all sides' schemas, so the
    shuffle sees one schema; a column name declared with two types raises.
    """
    if n_parts is None:
        n_parts = default_num_partitions()
    if not isinstance(inputs, dict):
        ds, key = inputs
        part = _part_fn(key, n_parts)

        def tag(t: pa.Table) -> pa.Table:
            t = t.replace_schema_metadata(None)
            return t.append_column(_PART, pa.array(part(t) if t.num_rows else [], pa.int64()))

        def run(g: pa.Table):
            return _typed_out(fn(BlockAccessor.for_block(g.drop_columns([_PART])).to_pandas()))

        tagged = ds.map_batches(tag, batch_format="pyarrow")
        return tagged.groupby(_PART).map_groups(run, batch_format="pyarrow")

    union = _union_schema(schema for _, _, schema in inputs.values())
    full = union.append(pa.field(_SIDE, pa.int8())).append(pa.field(_PART, pa.int64()))

    def side_tag(i: int, key, schema: pa.Schema):
        part = _part_fn(key, n_parts)

        def tag(t: pa.Table) -> pa.Table:
            n = t.num_rows
            own = pa.table(
                [pc.cast(t.column(f.name), f.type) if n else pa.array([], f.type) for f in schema],
                schema=schema,
            )
            cols = [own.column(f.name) if f.name in schema.names else pa.nulls(n, f.type)
                    for f in union]
            cols.append(pa.array(np.full(n, i, np.int8), pa.int8()))
            cols.append(pa.array(part(own) if n else [], pa.int64()))
            return pa.Table.from_arrays(cols, schema=full)

        return tag

    tagged = [ds.map_batches(side_tag(i, key, schema), batch_format="pyarrow")
              for i, (ds, key, schema) in enumerate(inputs.values())]
    names = {side: schema.names for side, (_, _, schema) in inputs.items()}

    def run(g: pa.Table):
        side = g.column(_SIDE).to_numpy()
        return _typed_out(fn({
            s: BlockAccessor.for_block(g.filter(pa.array(side == i)).select(cols)).to_pandas()
            for i, (s, cols) in enumerate(names.items())
        }))

    return tagged[0].union(*tagged[1:]).groupby(_PART).map_groups(run, batch_format="pyarrow")
