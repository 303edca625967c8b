"""Sequence packing for LM training-data preparation.

``pack_sequences`` lays every document's tokens end-to-end in doc_id order
into one conceptual token stream, then cuts the stream into fixed-budget
training sequences (the standard GPT-style "concat and chunk" pack). Each
doc gets its global ``start_offset``, the ``seq_id``/``seq_pos`` where it
begins, and how many sequences it spans — exactly what a downstream
tokenizer shard-writer needs to place documents without ever materializing
the token stream itself.

The hard part at scale is the global prefix sum over per-doc token counts.
Plan (three narrow passes, text read ONCE):

1. one vectorized ``map_batches`` projects (doc_id, n_tokens) — the only
   pass that touches ``text``; the result is materialized (16 bytes/doc,
   ~1.6 GB per 10^8 docs — object-store resident even at 100 TB corpus
   scale because the text itself never re-enters the plan);
2. docs are RANGE-bucketed on doc_id into P partitions; a tiny grouped
   aggregate yields per-bucket token totals (P rows to the driver), whose
   exclusive scan gives each bucket's base offset — the classic
   distributed scan (block sums + scan of sums);
3. one P-key shuffle co-locates each range bucket, and a vectorized
   per-bucket pass (sort by doc_id, cumulative sum + bucket base) emits
   the final offsets.

No full sort, no per-doc driver work; the only all-to-all moves the
16-byte (doc_id, n_tokens) pairs.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdftext_ray.ops import default_num_partitions
from pdftext_ray.ops.exchange import by_key, part_totals


def pack_sequences(
    ds: ray.data.Dataset,
    budget: int = 1024,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Assign each doc its packed position in a ``budget``-token stream.

    Output columns (all int64): ``doc_id, n_tokens, start_offset, seq_id,
    seq_pos, n_seqs`` where ``seq_id = start_offset // budget``,
    ``seq_pos = start_offset % budget`` and ``n_seqs`` counts the training
    sequences the doc overlaps (0 for empty docs). Deterministic and
    layout-independent: the stream order is doc_id order, not block order.
    """
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    def counts(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [
                pc.cast(t.column(id_col), pa.int64()),
                pc.cast(
                    pc.count_substring_regex(t.column(text_col), r"\S+"), pa.int64()
                ),
            ],
            names=["doc_id", "n_tokens"],
        )

    return pack_from_counts(ds.map_batches(counts, batch_format="pyarrow"), budget=budget)


def pack_from_counts(
    ds: ray.data.Dataset,
    budget: int = 1024,
    extra_cols: tuple = (),
) -> ray.data.Dataset:
    """Packing core over a pre-computed (doc_id, n_tokens) table (+ any
    ``extra_cols`` carried through unchanged) — lets composed pipelines
    that already know token counts (e.g. the training-mixture flow) skip
    the text pass. Same three-pass distributed-scan plan as
    ``pack_sequences`` (which is just counts → this)."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")

    out_cols = ["doc_id", "n_tokens", "start_offset", "seq_id", "seq_pos", "n_seqs"]
    narrow = ds.materialize()
    if narrow.count() == 0:
        schema = narrow.schema()

        def _empty(t: pa.Table) -> pa.Table:
            cols = {c: pa.array([], pa.int64()) for c in out_cols}
            for c in extra_cols:
                cols[c] = pa.array([], schema.base_schema.field(c).type)
            return pa.table(cols)

        return narrow.map_batches(_empty, batch_format="pyarrow")

    bounds = narrow.aggregate(
        ray.data.aggregate.Min("doc_id"), ray.data.aggregate.Max("doc_id")
    )
    lo, hi = int(bounds["min(doc_id)"]), int(bounds["max(doc_id)"])
    # narrow is materialized → the row count is free; size the range shuffle
    n_parts = default_num_partitions(rows=narrow.count())
    span = max(hi - lo + 1, 1)

    def bucket_of(ids: np.ndarray) -> np.ndarray:
        return (ids - lo) * n_parts // span

    def range_part(t: pa.Table) -> np.ndarray:
        return bucket_of(t.column("doc_id").to_numpy().astype(np.int64))

    # block sums → driver-side exclusive scan over the P bucket totals
    base = np.concatenate([[0], np.cumsum(part_totals(narrow, range_part, n_parts, "n_tokens"))])

    def place(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("doc_id", kind="mergesort")
        n = g["n_tokens"].to_numpy(dtype=np.int64)
        part = bucket_of(g["doc_id"].to_numpy(dtype=np.int64)[:1])[0]
        start = base[part] + np.concatenate([[0], np.cumsum(n[:-1])])
        seq_id = start // budget
        n_seqs = np.where(n > 0, (start + np.maximum(n, 1) - 1) // budget - seq_id + 1, 0)
        out = {
            "doc_id": g["doc_id"].to_numpy(dtype=np.int64),
            "n_tokens": n,
            "start_offset": start,
            "seq_id": seq_id,
            "seq_pos": start % budget,
            "n_seqs": n_seqs.astype(np.int64),
        }
        for c in extra_cols:
            out[c] = g[c].to_numpy()
        return pd.DataFrame(out)

    return by_key((narrow, range_part), place)
