"""Deduplication operators: exact, prefix-fingerprint, MinHash+LSH, SimHash,
n-gram Jaccard verification, embedding-cosine near-dup.

Scale pattern (ray_guide / SURVEY.md §4): hash/signature computation is a
vectorized ``map_batches`` stage (stateless, shuffle-free); only the tiny
signature/bucket tables shuffle (``groupby`` on hash or band keys) — the
full document text never participates in an all-to-all exchange except as
pre-shrunk shingle-hash arrays needed for candidate verification.
"""

from __future__ import annotations

import hashlib
import logging
import pickle
from typing import List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdftext_ray.ops import from_pandas_clean, round_half_away, vec_matrix
from pdftext_ray.ops.exchange import by_key

# 31-bit Mersenne prime: a, b, x < p keeps a*x + b < 2^63, so the minhash
# permutations h_i(x) = (a_i·x + b_i) mod p run fully vectorized in uint64 —
# no object-dtype bigint fallback in the hot path.
_MERSENNE = (1 << 31) - 1

# per-byte popcount lookup for vectorized Hamming distance (numpy 1.x has no
# bitwise_count ufunc)
_POPCOUNT8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _md5_hex(values: List[str]) -> List[str]:
    return [hashlib.md5(v.encode("utf-8")).hexdigest() for v in values]


def _text_hash_batch(batch: pa.Table, column: str) -> pa.Table:
    return batch.append_column("text_hash", pa.array(_md5_hex(batch.column(column).to_pylist()), pa.string()))


def exact_dedup(ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text") -> ray.data.Dataset:
    """Exact dedup: hash-partition on content hash, keep the smallest id.

    Output: (text_hash, keep_doc_id, dup_count). The shuffle carries only
    (text_hash, doc_id) pairs — pre-projected before the groupby; grouping
    runs as a few-partition co-located vectorized aggregate (every distinct
    text is a key — a per-distinct-key aggregate pays ~65 µs/key, i.e.
    O(corpus) Python overhead on a mostly-unique corpus).
    """
    from pdftext_ray.ops.relational import hash_grouped_agg

    hashed = ds.map_batches(
        lambda b: _text_hash_batch(b, text_col).select([id_col, "text_hash"]),
        batch_format="pyarrow",
    )
    return hash_grouped_agg(
        hashed, "text_hash",
        {"keep_doc_id": (id_col, "min"), "dup_count": (id_col, "size")},
    )


def incremental_exact_dedup(
    new_ds: ray.data.Dataset,
    baseline_hashes: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    hash_col: str = "text_hash",
) -> ray.data.Dataset:
    """Dedup a NEW increment against a persisted baseline fingerprint table
    — the daily-crawl shape at 100 TB: yesterday's corpus is represented
    only by its content-hash table (e.g. a prior :func:`exact_dedup` sink
    read back with ``read_parquet(..., columns=["text_hash"])``), never
    re-read or re-hashed.

    Output, mirroring :func:`exact_dedup` but restricted to NOVEL content:
    (text_hash, keep_doc_id, dup_count) for hashes absent from the
    baseline, keeping the smallest new id per hash; dup_count counts
    within-increment copies only.

    Plan: the increment's distinct hash set is broadcast once and ONE scan
    filters the corpus-sized baseline down to the hashes the increment also
    contains; the baseline is scanned, never exchanged. The keep-min/size
    aggregate and the seen-filter then run in one task
    (:func:`probe.in_one_task`) over the hashed increment and the scan's
    output, both at most one 32-char hash (plus id) per increment row —
    the task's memory bound.
    """
    from pdftext_ray.ops import probe

    # the increment is the small side by this op's contract — materialize
    # the hashed projection once so the hash-set assembly and the
    # aggregation share one execution of the lineage
    new_hashed = new_ds.map_batches(
        lambda b: _text_hash_batch(b, text_col).select([id_col, "text_hash"]),
        batch_format="pyarrow",
    ).materialize()
    id_type = _schema_field_type(new_hashed, id_col) or pa.int64()
    hs_ref = probe.key_set(new_hashed, lambda t: t.column("text_hash"))

    def filter_seen(t: pa.Table) -> pa.Table:
        """The one corpus-sized scan: emit only baseline hashes the
        increment also contains (≤ |increment| rows total)."""
        col = pc.cast(t.column(hash_col).combine_chunks(), pa.string())
        mask = probe.member_sorted(col.to_numpy(zero_copy_only=False), ray.get(hs_ref))
        return pa.table({"text_hash": col.filter(pa.array(mask))})

    def keep_novel(new_blocks, seen_blocks) -> pa.Table:
        """Keep-min id and copy count per increment hash absent from the
        baseline."""
        if not new_blocks:
            return pa.schema([("text_hash", pa.string()), ("keep_doc_id", id_type),
                              ("dup_count", pa.int64())]).empty_table()
        t = pa.concat_tables(new_blocks)
        if seen_blocks:
            seen = pa.concat_arrays([b.column("text_hash").combine_chunks() for b in seen_blocks])
            t = t.filter(pc.invert(pc.is_in(t.column("text_hash"), value_set=seen)))
        g = t.group_by("text_hash").aggregate([(id_col, "min"), ([], "count_all")])
        return pa.table({
            "text_hash": g.column("text_hash"),
            "keep_doc_id": pc.cast(g.column(f"{id_col}_min"), id_type),
            "dup_count": pc.cast(g.column("count_all"), pa.int64()),
        })

    return probe.in_one_task(
        keep_novel, new_hashed, baseline_hashes.map_batches(filter_seen, batch_format="pyarrow"))


def minhash_signatures(
    ds: ray.data.Dataset,
    num_perm: int = 64,
    ngram: int = 3,
    seed: int = 7,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Persistable (id, minhash) signature table — the baseline artifact
    :func:`incremental_minhash_dedup` consumes. Write it with
    ``storage.write_table``; the next increment never re-reads baseline
    text, only this table."""
    return ds.map_batches(
        MinHasher(num_perm, ngram, seed, id_col, text_col, emit_shingles=False),
        batch_format="pyarrow", batch_size=1024,
    )


# ---------------------------------------------------------------------------
# Signature-matrix toolkit (shared by minhash_lsh_pairs and the incremental
# MinHash family — the single band bucketizer VERDICT r4 #1 prescribes).
# Every helper is vectorized over the whole batch: the per-doc×band Python
# hashlib loops and per-pair np.frombuffer calls these replace were the
# dominant candidate-generation CPU at crawl scale.
# ---------------------------------------------------------------------------

_BAND_SALT = np.uint64(0xA24BAED4963EE407)


def _sig_matrix_from_binary(col, num_perm: int) -> np.ndarray:
    """Zero-copy (n, num_perm) int64 view of a packed little-endian
    signature column (the ``_sigb`` layout ``_pack_sig_binary`` writes).
    Handles binary and large_binary (pandas round-trips re-type) and
    sliced arrays (non-zero offset)."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(a)
    if n == 0:
        return np.empty((0, num_perm), dtype=np.int64)
    if a.null_count:
        raise ValueError("packed signature column has nulls")
    width = num_perm * 8
    off_dtype = np.int64 if pa.types.is_large_binary(a.type) else np.int32
    offs = np.frombuffer(a.buffers()[1], dtype=off_dtype)[a.offset : a.offset + n + 1]
    if not (np.diff(offs) == width).all():
        raise ValueError(f"packed signatures must be exactly {width} bytes each")
    return np.frombuffer(
        a.buffers()[2], dtype="<i8", count=n * num_perm, offset=int(offs[0])
    ).reshape(n, num_perm)


def _sig_matrix_from_list(col, num_perm: int) -> np.ndarray:
    """(n, num_perm) int64 matrix view of a ``list<int64>`` signature column
    (MinHasher's ``minhash`` output — every row has exactly num_perm values,
    the empty-doc sentinel included)."""
    a = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    n = len(a)
    if n == 0:
        return np.empty((0, num_perm), dtype=np.int64)
    lens = pc.list_value_length(a).to_numpy(zero_copy_only=False)
    if not (lens == num_perm).all():
        raise ValueError(f"minhash signatures must have exactly {num_perm} values")
    flat = a.flatten().to_numpy(zero_copy_only=False).astype(np.int64, copy=False)
    return flat.reshape(n, num_perm)


def _pack_sig_binary(mat: np.ndarray) -> pa.Array:
    """Inverse of :func:`_sig_matrix_from_binary`: one contiguous buffer +
    arithmetic offsets instead of a per-row ``tobytes()`` loop. Byte content
    per row is identical to ``np.asarray(row, '<i8').tobytes()``."""
    n, num_perm = mat.shape
    data = np.ascontiguousarray(mat, dtype="<i8").tobytes()
    offs = (np.arange(n + 1, dtype=np.int32) * (num_perm * 8)).tobytes()
    return pa.Array.from_buffers(
        pa.binary(), n, [None, pa.py_buffer(offs), pa.py_buffer(data)]
    )


def _band_bucket_hash(sig_mat: np.ndarray, bands: int) -> np.ndarray:
    """(n, bands) int64 63-bit band-bucket keys: a splitmix64-mixed fold of
    each band's ``rows`` signature values, band index baked into the seed so
    equal chunks in DIFFERENT bands never co-bucket. Co-bucketing ⇔ chunk
    equality (modulo ~2^-63 collisions) — the same contract the previous
    per-row blake2b keys provided; nothing downstream or in a golden depends
    on the key VALUES, only on the grouping (the goldens re-derive buckets
    independently and also group by chunk equality)."""
    from pdftext_ray.ops.stats import _splitmix64

    n, num_perm = sig_mat.shape
    rows = num_perm // bands
    # non-divisible num_perm: the tail positions past bands*rows are ignored,
    # matching the historical slice-per-band formula
    m = (
        np.ascontiguousarray(sig_mat[:, : bands * rows], dtype=np.int64)
        .view(np.uint64)
        .reshape(n, bands, rows)
    )
    acc = np.broadcast_to(
        _splitmix64(np.arange(bands, dtype=np.uint64) + _BAND_SALT), (n, bands)
    ).copy()
    for r in range(rows):
        acc = _splitmix64(acc ^ m[:, :, r])
    return (acc >> np.uint64(1)).astype(np.int64)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal keys in a sorted array
    (of equal rows, for a 2-D one)."""
    first = np.ones(len(sorted_keys), dtype=bool)
    diff = sorted_keys[1:] != sorted_keys[:-1]
    first[1:] = diff.any(axis=1) if diff.ndim == 2 else diff
    return first


def _band_postings_table(
    t: pa.Table, sig_mat: np.ndarray, bands: int, id_col: str, extra_cols=()
) -> pa.Table:
    """Band-explode a signature batch into (bucket, id[, extras]) postings —
    one row per (doc, band), column types carried through ``pc.take`` so
    empty blocks keep a shuffle-safe schema (invariant 12)."""
    buckets = _band_bucket_hash(sig_mat, bands).ravel()
    rep = pa.array(np.repeat(np.arange(sig_mat.shape[0], dtype=np.int64), bands))
    cols = {
        "bucket": pa.array(buckets, pa.int64()),
        id_col: pc.take(t.column(id_col).combine_chunks(), rep),
    }
    for c in extra_cols:
        cols[c] = pc.take(t.column(c).combine_chunks(), rep)
    return pa.table(cols)


def incremental_minhash_dedup(
    new_ds: ray.data.Dataset,
    baseline_sigs: ray.data.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    threshold: float = 0.5,
    seed: int = 7,
    id_col: str = "doc_id",
    text_col: str = "text",
    new_sigs: Optional[ray.data.Dataset] = None,
) -> ray.data.Dataset:
    """Near-dup verdicts for a crawl increment against a persisted MinHash
    signature baseline — the scale path of :func:`incremental_exact_dedup`.
    Pass ``new_sigs`` (a :func:`minhash_signatures` table for exactly the
    increment docs, same num_perm/seed) to skip the in-op signature pass —
    the caller that also persists the increment's signatures (the daily
    roll-forward) computes them ONCE and shares.

    Output: one row per FLAGGED new doc — (doc_id, dup_of, est_jaccard)
    where ``dup_of`` is the best-matching EARLIER doc (any baseline doc, or
    a new doc with a smaller id) and ``est_jaccard`` is the signature
    agreement fraction (matching positions / num_perm — the standard
    unbiased MinHash estimator; exact verification is impossible without
    re-reading baseline text, which is the point). Unflagged docs are the
    increment's novel set. Ids must be disjoint across baseline and
    increment (monotone id assignment gives this for free).

    Plan — the baseline is scanned once; everything else is increment-sized
    and runs in ONE task (:func:`probe.in_one_task`), with identical
    signatures collapsed before any pair is emitted (invariant 14):

    1. signatures for the increment (MinHasher actor pool, or ``new_sigs``);
       their band-bucket set is broadcast.
    2. ONE baseline scan keeps the docs with ≥1 band bucket in the
       increment's set — the only baseline docs any increment doc can pair
       with — and of those one per distinct signature per block, its min
       id: identical signatures give identical estimates and the argmax
       tie-break is the min id, so the dropped copies change no verdict.
    3. the task sorts increment ∪ kept baseline rows by (signature bytes,
       is_new, id). Each run of identical signatures starts with its head:
       the min baseline id when the baseline holds that signature (the
       matched head), else the min new id. Every other new doc of the run
       is flagged at est 1.0 against the head; the run heads are the
       candidates (baseline docs and new reps).
    4. the candidates are banded (same bucket formula as
       minhash_lsh_pairs); within a bucket ordered by (is_new, id), a new
       rep pairs with every row before it — baseline docs and smaller-id
       new reps.
    5. each pair's estimate indexes the one signature matrix; threshold.
    6. per-new-doc argmax over collapse flags ∪ banded estimates: max est,
       ties by min dup_of — EXCEPT that a doc flagged at collapse reports
       its GROUP HEAD (baseline-first, then smallest id) as dup_of, not the
       globally smallest est-1.0 peer: identical-signature members are
       interchangeable, and pointing every copy at the one head is what
       keeps the emission linear (no within-group pair expansion).

    Ties cannot otherwise straddle kinds: collapse flags are exactly 1.0
    and rep pairs have non-identical signatures (est < 1.0). Empty docs share the
    sentinel signature and collapse together — an empty increment doc is
    flagged against an earlier empty doc at 1.0 (for incremental-dedup
    semantics two empty texts ARE identical; contrast invariant 10's
    set-Jaccard convention for the pair ops).

    Output columns are named (``id_col``, dup_of, est_jaccard) — a custom
    ``id_col`` is carried through, not renamed to ``doc_id`` (round-4
    ADVICE), rows sorted by it. Every step is matrix-vectorized via the
    signature-matrix toolkit above — no per-row hashing or per-pair
    ``np.frombuffer`` (round-4 VERDICT #1).

    Memory: the task holds about num_perm×8 + bands×8 bytes per increment
    row (signature matrix and band postings), the same again per kept
    baseline row (at most one per distinct increment bucket hit), plus the
    emitted pairs. The bucket set (≤ bands int64 per increment doc) is
    built in a remote task; nothing per row reaches the driver.
    """
    from pdftext_ray.ops import probe, round_half_away

    id_type = _schema_field_type(new_ds, id_col) or pa.int64()
    out_schema = pa.schema([(id_col, id_type), ("dup_of", id_type), ("est_jaccard", pa.float64())])

    def sig_runs(mat: np.ndarray, ids: pa.Array, is_new: np.ndarray):
        """Row order by (signature bytes, is_new, id) and the mask of the
        first row of each run of identical signatures in that order."""
        order = pc.sort_indices(
            pa.table({"sig": _pack_sig_binary(mat), "is_new": is_new, "id": ids}),
            [("sig", "ascending"), ("is_new", "ascending"), ("id", "ascending")],
        ).to_numpy()
        return order, _run_starts(mat[order])

    # the increment is the small side by this op's contract — signatures are
    # num_perm×8 bytes/doc, so materializing them is bounded; the bucket set
    # and the task share one execution of the MinHasher lineage
    new_sigs = (
        new_sigs if new_sigs is not None
        else minhash_signatures(new_ds, num_perm, ngram, seed, id_col, text_col)
    ).materialize()
    bucket_ref = probe.key_set(new_sigs, lambda t: _band_bucket_hash(
        _sig_matrix_from_list(t.column("minhash"), num_perm), bands))

    def scan_base(t: pa.Table) -> pa.Table:
        """The one corpus-sized scan: baseline docs sharing ≥1 band bucket
        with some increment doc, one per distinct signature (min id)."""
        mat = _sig_matrix_from_list(t.column("minhash"), num_perm)
        b = _band_bucket_hash(mat, bands)
        hit = probe.member_sorted(b.ravel(), ray.get(bucket_ref)).reshape(b.shape).any(axis=1)
        keep = np.flatnonzero(hit)
        mat = mat[keep]
        ids = pc.cast(t.column(id_col).combine_chunks(), id_type).take(keep)
        order, first = sig_runs(mat, ids, np.zeros(len(keep), dtype=bool))
        return pa.table({id_col: ids.take(order[first]), "_sigb": _pack_sig_binary(mat[order[first]])})

    def verdicts(new_blocks, base_blocks) -> pa.Table:
        if not new_blocks:
            return out_schema.empty_table()
        ids = pa.concat_arrays(
            [b.column(id_col).combine_chunks() for b in base_blocks]
            + [pc.cast(b.column(id_col).combine_chunks(), id_type) for b in new_blocks])
        mat = np.concatenate(
            [_sig_matrix_from_binary(b.column("_sigb"), num_perm) for b in base_blocks]
            + [_sig_matrix_from_list(b.column("minhash"), num_perm) for b in new_blocks])
        is_new = np.arange(len(ids)) >= len(ids) - sum(b.num_rows for b in new_blocks)

        # collapse (step 3): run heads are the candidates, the other new
        # rows of a run are flagged against the run head
        order, first = sig_runs(mat, ids, is_new)
        head = order[np.maximum.accumulate(np.where(first, np.arange(len(order)), 0))]
        flagged = is_new[order] & ~first
        cand = order[first]
        cand_new = is_new[cand]
        cand_ids = ids.take(cand)

        # band pairs (step 4): postings sorted by (bucket, is_new, id); a new
        # row at local rank r pairs with the r rows before it
        id_rank = np.empty(len(cand), dtype=np.int64)
        id_rank[pc.sort_indices(cand_ids).to_numpy()] = np.arange(len(cand))
        row = np.repeat(np.arange(len(cand)), bands)
        bkt = _band_bucket_hash(mat[cand], bands).ravel()
        o = np.lexsort((id_rank[row], cand_new[row], bkt))
        row, bkt = row[o], bkt[o]
        starts = _run_starts(bkt)
        grp_start = np.flatnonzero(starts)[np.cumsum(starts) - 1]
        counts = np.where(cand_new[row], np.arange(len(row)) - grp_start, 0)
        offs = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        # a pair shared by several bands is estimated once
        key = np.unique(row[np.repeat(np.arange(len(row)), counts)] * len(cand)
                        + row[np.repeat(grp_start, counts) + offs])
        n_c, m_c = key // len(cand), key % len(cand)

        # estimate + threshold (step 5), argmax per new rep (step 6)
        est = (mat[cand[n_c]] == mat[cand[m_c]]).sum(axis=1) / float(num_perm)
        keep = est >= threshold
        n_c, m_c, est = n_c[keep], m_c[keep], round_half_away(est[keep], 6)
        o = np.lexsort((id_rank[m_c], -est, n_c))
        best = o[_run_starts(n_c[o])]
        out = pa.table({
            id_col: pa.concat_arrays([ids.take(order[flagged]), cand_ids.take(n_c[best])]),
            "dup_of": pa.concat_arrays([ids.take(head[flagged]), cand_ids.take(m_c[best])]),
            "est_jaccard": pa.array(
                np.concatenate([np.ones(int(flagged.sum())), est[best]]), pa.float64()),
        })
        return out.take(pc.sort_indices(out.column(id_col)))

    return probe.in_one_task(
        verdicts, new_sigs, baseline_sigs.map_batches(scan_base, batch_format="pyarrow"))


def _lsh_bucket_table(
    batch: pa.Table,
    id_col: str,
    vec_col: str,
    n_planes: int,
    seed: int,
    masks,
    id_type=None,
    const_cols=(),
) -> pa.Table:
    """Shared hyperplane-LSH bucketizer (embedding_dup_pairs and
    incremental_embedding_dedup MUST draw identical planes/codes — this is
    the single source of that formula): seeded plane draw, unit-normalized
    rows, packed sign codes, one output row per (vector, probe mask).
    ``const_cols``: [(name, (value, pa_type))] constant columns appended
    (e.g. an is_new marker)."""
    rng = np.random.RandomState(seed)
    vecs = vec_matrix(batch.column(vec_col))
    planes = rng.standard_normal((vecs.shape[1] if vecs.size else 0, n_planes))
    ids = batch.column(id_col).to_pylist()
    if not ids:
        arrays = [pa.array([], pa.int64()),
                  pa.array([], id_type if id_type is not None else pa.int64()),
                  pa.array([], pa.list_(pa.float64()))]
        names = ["bucket", id_col, vec_col]
        for name, (_val, typ) in const_cols:
            arrays.append(pa.array([], typ))
            names.append(name)
        return pa.Table.from_arrays(arrays, names=names)
    unit = _unit_rows(vecs)
    codes = (unit @ planes > 0).astype(np.uint32)
    base = (codes << np.arange(n_planes, dtype=np.uint32)).sum(axis=1)
    # one output row per (vector, probe mask), row-major like the historical
    # per-row loop — fully vectorized: XOR outer product for buckets, take
    # for ids, a flat-values ListArray rebuild for the repeated unit vectors
    n, k, d = len(base), len(masks), unit.shape[1]
    marr = np.asarray(list(masks), dtype=np.int64)
    buckets = (base.astype(np.int64)[:, None] ^ marr[None, :]).ravel()
    rep_idx = np.repeat(np.arange(n, dtype=np.int64), k)
    id_chunk = batch.column(id_col).combine_chunks()
    if id_type is not None:
        id_chunk = pc.cast(id_chunk, id_type)
    id_arr = pc.take(id_chunk, pa.array(rep_idx))
    flat = np.ascontiguousarray(unit[rep_idx], dtype=np.float64).ravel()
    if n * k * d >= 2**31:  # int32 list offsets — cap far above any batch
        raise ValueError("_lsh_bucket_table: batch too large for list offsets; lower batch_size")
    vec_arr = pa.ListArray.from_arrays(
        pa.array(np.arange(n * k + 1, dtype=np.int32) * d, pa.int32()),
        pa.array(flat, pa.float64()),
    )
    arrays = [pa.array(buckets, pa.int64()), id_arr, vec_arr]
    names = ["bucket", id_col, vec_col]
    for name, (val, typ) in const_cols:
        arrays.append(pa.array(np.full(n * k, val), typ))
        names.append(name)
    return pa.Table.from_arrays(arrays, names=names)


def _per_bucket(part: pd.DataFrame, bucket_fn, schema: pa.Schema) -> pa.Table:
    """Run ``bucket_fn`` on every bucket of one few-partition hash part and
    concatenate its non-empty tables (invariant 9: buckets are a >100k-key
    space at corpus scale — 2^n_planes × probe fan-out — so they are scanned
    per part, never one map_groups per bucket)."""
    tabs = [bucket_fn(sub) for _, sub in part.groupby("bucket", sort=False)]
    tabs = [t for t in tabs if t.num_rows]
    return pa.concat_tables(tabs) if tabs else schema.empty_table()


def incremental_embedding_dedup(
    new_emb: ray.data.Dataset,
    baseline_emb: ray.data.Dataset,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    probe_radius: int = 1,
) -> ray.data.Dataset:
    """Embedding near-dup verdicts for an increment against a persisted
    baseline vector table — the third modality of the incremental family
    (exact hashes / MinHash signatures / embeddings; here the vector IS the
    persisted fingerprint).

    Output: one row per FLAGGED new vector — (vec_id, dup_of, cosine) for
    the best earlier match (any baseline vector, or a new vector with a
    smaller id) at cosine ≥ threshold. Ids must be disjoint across the
    sides. Same hyperplane-LSH machinery as :func:`embedding_dup_pairs`
    (seeded planes, multi-probe on the NEW side only — the baseline is the
    index and emits its base code once); ``probe_radius == n_planes`` is
    the exact, SQL-oracle-comparable configuration, the small-radius
    default the approximate scale path. Output columns are named
    (``id_col``, dup_of, cosine) — a custom ``id_col`` carries through
    (round-4 ADVICE).

    Plan: the increment's DISTINCT probe-bucket set is broadcast once and
    the baseline postings — each carrying its full vector — are filtered
    to increment-hit buckets BEFORE the bucket shuffle: a baseline posting
    in a bucket no new vector probes can never produce a verdict, so the
    exchange is candidate-sized, not corpus-sized. No per-row state reaches
    the driver; the bucket set (≤ 1 + probes int64 per increment vector) is
    built in a remote task.
    """
    from itertools import combinations

    from pdftext_ray.ops import probe

    if not 0 <= probe_radius <= n_planes:
        raise ValueError(f"probe_radius must be in [0, {n_planes}], got {probe_radius}")
    id_type = _schema_field_type(new_emb, id_col) or pa.int64()
    masks = [0] + [
        sum(1 << p for p in combo)
        for r in range(1, probe_radius + 1)
        for combo in combinations(range(n_planes), r)
    ]

    def bucketize(is_new: int):
        use_masks = masks if is_new else [0]

        def fn(batch: pa.Table) -> pa.Table:
            return _lsh_bucket_table(
                batch, id_col, vec_col, n_planes, seed, use_masks,
                id_type=id_type, const_cols=[("is_new", (is_new, pa.int8()))],
            )

        return fn

    verdict_schema = pa.schema([(id_col, id_type), ("dup_of", id_type), ("cosine", pa.float64())])

    def bucket_verdicts(group: pd.DataFrame):
        g = group.sort_values([id_col, "is_new"]).drop_duplicates(id_col).reset_index(drop=True)
        new = g[g["is_new"] == 1]
        if new.empty or len(g) < 2:
            return verdict_schema.empty_table()
        mat_all = np.asarray(g[vec_col].tolist(), dtype=np.float64)
        sims = np.asarray(new[vec_col].tolist(), dtype=np.float64) @ mat_all.T
        gids = g[id_col].to_numpy()
        gnew = g["is_new"].to_numpy()
        o_id, o_of, o_c = [], [], []
        for row, ni in enumerate(new[id_col].to_numpy()):
            elig = (gnew == 0) | ((gnew == 1) & (gids < ni))
            s = sims[row][elig]
            keep = s >= threshold
            if keep.any():
                o_id.extend([ni] * int(keep.sum()))
                o_of.extend(gids[elig][keep].tolist())
                o_c.extend(round_half_away(s[keep], 6).tolist())
        return pa.table({
            id_col: pa.array(o_id, id_type),
            "dup_of": pa.array(o_of, id_type),
            "cosine": pa.array(o_c, pa.float64()),
        })

    # the increment is the small side by this op's contract; materialize the
    # input (not the 1+probes-times-larger posting expansion) so the
    # bucket-set pass and the posting pass share one read
    new_posts = new_emb.materialize().map_batches(bucketize(1), batch_format="pyarrow")
    bs_ref = probe.key_set(new_posts, lambda t: t.column("bucket"))

    def filter_base(t: pa.Table) -> pa.Table:
        """Drop baseline postings in buckets no new vector probes — they
        cannot meet a new row in bucket_verdicts, so the bucket shuffle
        carries candidates only, not the corpus."""
        col = t.column("bucket").combine_chunks().to_numpy(zero_copy_only=False)
        return t.filter(pa.array(probe.member_sorted(col, ray.get(bs_ref))))

    base_posts = baseline_emb.map_batches(bucketize(0), batch_format="pyarrow").map_batches(
        filter_base, batch_format="pyarrow")

    hits = by_key((new_posts.union(base_posts), "bucket"),
                  lambda g: _per_bucket(g, bucket_verdicts, verdict_schema))

    def best(g: pd.DataFrame):
        g = g.sort_values(
            [id_col, "cosine", "dup_of"], ascending=[True, False, True],
            kind="mergesort",
        )
        return g[~g[id_col].duplicated()][[id_col, "dup_of", "cosine"]]

    return by_key((hits, id_col), best)


def prefix_dedup(
    ds: ray.data.Dataset, id_col: str = "doc_id", text_col: str = "text", n_tokens: int = 50
) -> ray.data.Dataset:
    """Near-exact dedup on the first-N-token fingerprint (catches documents
    differing only in a tail/boilerplate suffix). Same co-located vectorized
    grouping as :func:`exact_dedup`."""
    from pdftext_ray.ops.relational import hash_grouped_agg

    def fp(batch: pa.Table) -> pa.Table:
        toks = pc.utf8_split_whitespace(batch.column(text_col))
        prefixes = [" ".join([t for t in row if t][:n_tokens]) for row in toks.to_pylist()]
        return pa.Table.from_arrays(
            [batch.column(id_col), pa.array(_md5_hex(prefixes), pa.string())],
            names=[id_col, "prefix_hash"],
        )

    return hash_grouped_agg(
        ds.map_batches(fp, batch_format="pyarrow"), "prefix_hash",
        {"keep_doc_id": (id_col, "min"), "dup_count": (id_col, "size")},
    )


def chunk_text_batch(
    batch: pa.Table, n_tokens: int = 10, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Rewrite text as newline-joined non-overlapping ``n_tokens``-token
    windows — a deterministic pseudo-paragraph segmentation for corpora whose
    documents carry no line structure (the SQL oracle mirrors it exactly)."""
    import re

    find = re.compile(r"\S+").findall
    texts = batch.column(text_col).to_pylist()
    out = [
        "\n".join(
            " ".join(toks[i:i + n_tokens]) for i in range(0, len(toks), n_tokens)
        )
        for toks in (find(t) for t in texts)
    ]
    return pa.Table.from_arrays(
        [batch.column(id_col), pa.array(out, pa.string())], names=[id_col, text_col]
    )


def _piece_dedup(
    ds: ray.data.Dataset,
    keep_rule,
    id_col: str,
    text_col: str,
    sep: str,
    n_parts: Optional[int],
    count_cols,
) -> ray.data.Dataset:
    """The plan :func:`paragraph_dedup` and :func:`line_frequency_dedup`
    share (two few-partition shuffles, no driver state): explode each text
    on ``sep`` to (doc_id, idx, piece) → shuffle 1 on hash(piece) co-locates
    every copy of a piece, and ``keep_rule(pieces, docs, idx)`` flags the
    kept ones per partition in one vectorized pass → shuffle 2 on
    hash(doc_id) rebuilds each document from its kept pieces in order.
    Output: (doc_id, text, *count_cols) — the piece count and the dropped
    count; a document whose every piece was dropped still emits a row
    (text='')."""
    def explode(t: pa.Table) -> pa.Table:
        parts = pc.split_pattern(t.column(text_col), pattern=sep)
        if isinstance(parts, pa.ChunkedArray):
            parts = parts.combine_chunks()
        counts = pc.list_value_length(parts).to_numpy(zero_copy_only=False).astype(np.int64)
        id_type = t.schema.field(id_col).type
        ids = np.repeat(t.column(id_col).to_numpy(zero_copy_only=False), counts)
        starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
        idx = np.arange(int(counts.sum()), dtype=np.int64) - np.repeat(starts, counts)
        return pa.Table.from_arrays(
            [pa.array(ids, id_type), pa.array(idx, pa.int64()), parts.flatten()],
            names=[id_col, "idx", "piece"],
        )

    def flag(g):
        pieces, docs, idx = g["piece"].to_numpy(), g[id_col].to_numpy(), g["idx"].to_numpy()
        return pd.DataFrame(
            {id_col: docs, "idx": idx, "piece": pieces, "keep": keep_rule(pieces, docs, idx)})

    def reassemble(g):
        ids = g[id_col].to_numpy()
        order = np.lexsort((g["idx"].to_numpy(), ids))
        ids = ids[order]
        pieces = g["piece"].to_numpy()[order]
        keep = g["keep"].to_numpy()[order]
        rstarts = np.flatnonzero(_run_starts(ids))
        rends = np.append(rstarts[1:], len(ids))
        o_id, o_text, o_n, o_dropped = [], [], [], []
        for s, e in zip(rstarts.tolist(), rends.tolist()):
            kept = [pieces[i] for i in range(s, e) if keep[i]]
            o_id.append(ids[s])
            o_text.append(sep.join(kept))
            o_n.append(e - s)
            o_dropped.append(e - s - len(kept))
        id_dtype = g[id_col].dtype
        id_type = pa.string() if id_dtype == object else pa.from_numpy_dtype(id_dtype)
        return pa.Table.from_arrays(
            [
                pa.array(o_id, id_type),
                pa.array(o_text, pa.string()),
                pa.array(o_n, pa.int64()),
                pa.array(o_dropped, pa.int64()),
            ],
            names=[id_col, "text", *count_cols],
        )

    flagged = by_key((ds.map_batches(explode, batch_format="pyarrow"), "piece"), flag, n_parts)
    return by_key((flagged, id_col), reassemble, n_parts)


def paragraph_dedup(
    ds: ray.data.Dataset,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = "\n",
    n_parts: int = None,
) -> ray.data.Dataset:
    """C4-style corpus-wide paragraph dedup (Raffel et al. 2020 §2.2 drop
    repeated lines; CCNet does the same at paragraph hash level): every
    paragraph that already occurred anywhere in the corpus — ordered by
    (doc_id, para_idx), keep-first — is dropped, and documents are
    reassembled from their surviving paragraphs in order.

    Plan: :func:`_piece_dedup`; one lexsort per partition marks the global
    first occurrence of each paragraph.
    Output: (doc_id, text, n_paras, n_dropped).
    """
    def first_copy(paras, docs, idx):
        order = np.lexsort((idx, docs, paras))
        keep = np.empty(len(order), dtype=bool)
        keep[order] = _run_starts(paras[order])
        return keep

    return _piece_dedup(ds, first_copy, id_col, text_col, sep, n_parts, ("n_paras", "n_dropped"))


def line_frequency_dedup(
    ds: ray.data.Dataset,
    min_docs: int = 2,
    id_col: str = "doc_id",
    text_col: str = "text",
    sep: str = "\n",
    n_parts: int = None,
) -> ray.data.Dataset:
    """RefinedWeb/CCNet-style boilerplate line removal: drop EVERY occurrence
    of any line that appears in ``min_docs`` or more DISTINCT documents
    (Penedo et al. 2023 §3.2 remove frequent lines; unlike
    :func:`paragraph_dedup`'s C4 keep-first, the first copy goes too — a
    nav-bar line is boilerplate in all of its documents).

    Plan: :func:`_piece_dedup`; one lexsort per partition counts distinct
    docs per line run and keeps a line iff ndocs < min_docs.
    Output: (doc_id, text, n_lines, n_removed).
    """
    def rare(lines, docs, idx):
        order = np.lexsort((docs, lines))
        new_line = _run_starts(lines[order])
        # distinct (line, doc) pairs: doc change within a line run, or a new run
        new_pair = new_line | _run_starts(docs[order])
        gid = np.cumsum(new_line) - 1
        ndocs = np.bincount(gid[new_pair], minlength=gid[-1] + 1 if len(gid) else 0)
        keep = np.empty(len(order), dtype=bool)
        keep[order] = ndocs[gid] < min_docs
        return keep

    return _piece_dedup(ds, rare, id_col, text_col, sep, n_parts, ("n_lines", "n_removed"))


# ---------------------------------------------------------------------------
# shingles + MinHash + LSH
# ---------------------------------------------------------------------------

def _shingle_hashes(text: str, n: int = 3, short_fallback: bool = True) -> np.ndarray:
    """Deterministic 61-bit hashes of word n-gram shingles.

    ``short_fallback=True`` (MinHash semantics) joins a <n-token doc into one
    gram; ``False`` (exact n-gram Jaccard semantics, mirroring the SQL
    oracle) yields an empty set for short docs.
    """
    toks = text.split()
    if len(toks) < n:
        grams = [" ".join(toks)] if (toks and short_fallback) else []
    else:
        grams = [" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)]
    out = np.empty(len(grams), dtype=np.uint64)
    for i, gm in enumerate(grams):
        out[i] = int.from_bytes(hashlib.blake2b(gm.encode("utf-8"), digest_size=8).digest(), "big") % _MERSENNE
    return out


class MinHasher:
    """Actor-pool stage: seeded permutation parameters built once per actor
    (ST-style warm state), signatures vectorized per doc via numpy."""

    def __init__(self, num_perm: int = 64, ngram: int = 3, seed: int = 7,
                 id_col: str = "doc_id", text_col: str = "text",
                 emit_shingles: bool = True):
        rng = np.random.RandomState(seed)
        self.a = rng.randint(1, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.b = rng.randint(0, _MERSENNE, size=num_perm, dtype=np.uint64)
        self.num_perm = num_perm
        self.ngram = ngram
        self.id_col = id_col
        self.text_col = text_col
        # signature-only consumers (incremental baselines) skip the per-doc
        # unique-sort + list materialization of the exact-verify shingles
        self.emit_shingles = emit_shingles

    def signature(self, text: str) -> np.ndarray:
        sh = _shingle_hashes(text, self.ngram)
        if len(sh) == 0:
            return np.full(self.num_perm, _MERSENNE, dtype=np.uint64)
        # h_i(x) = (a_i * x + b_i) mod p, vectorized (num_perm × n_shingles)
        prod = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
        return np.min(prod, axis=1)

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids = batch.column(self.id_col).to_pylist()
        texts = batch.column(self.text_col).to_pylist()
        sigs, shingles = [], []
        for t in texts:
            sh = _shingle_hashes(t, self.ngram)  # hashed once, used twice
            if len(sh) == 0:
                sigs.append(np.full(self.num_perm, _MERSENNE, dtype=np.uint64).astype(np.int64).tolist())
            else:
                prod = (self.a[:, None] * sh[None, :] + self.b[:, None]) % _MERSENNE
                sigs.append(np.min(prod, axis=1).astype(np.int64).tolist())
            if self.emit_shingles:
                shingles.append(np.unique(sh).astype(np.int64).tolist())
        arrays = [pa.array(ids), pa.array(sigs, pa.list_(pa.int64()))]
        names = [self.id_col, "minhash"]
        if self.emit_shingles:
            arrays.append(pa.array(shingles, pa.list_(pa.int64())))
            names.append("shingles")
        return pa.Table.from_arrays(arrays, names=names)


def _jaccard_sorted(a: np.ndarray, b: np.ndarray) -> float:
    """Set Jaccard over UNIQUE sorted shingle hashes (MinHasher stores
    np.unique output; mixing multiset lengths with unique intersections
    under-scores docs with repeated shingles — even identical docs).

    Two EMPTY sets score 0, not 1 — the ``|∩| / greatest(|∪|, 1)``
    convention the SQL oracles use — so a corpus with several empty docs
    (whose all-sentinel minhash signatures always co-bucket) cannot emit
    pairs the oracle does not have.
    """
    inter = len(np.intersect1d(a, b, assume_unique=True))
    union = len(a) + len(b) - inter
    return inter / max(union, 1)


def _bucket_runs(part: pd.DataFrame, id_col: str):
    """One row per distinct (bucket, id) of a part, sorted by (bucket, id),
    and the [start, end) row bounds of every bucket holding two or more ids
    — the runs that can emit a pair. Numpy run bounds, not a pandas groupby:
    iterating one pays ~100 µs per group, and duplication-heavy corpora have
    ~every bucket multi-doc."""
    part = part.drop_duplicates(["bucket", id_col]).sort_values(["bucket", id_col])
    starts = np.flatnonzero(_run_starts(part["bucket"].to_numpy()))
    ends = np.r_[starts[1:], len(part)]
    multi = ends - starts >= 2
    return part, starts[multi], ends[multi]


def _run_pair_rows(starts: np.ndarray, ends: np.ndarray):
    """Row-index pairs (i, j), i < j, within each [start, end) run, runs in
    order — every pair of ids sharing a bucket."""
    ia, ib = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
    for s0, e0 in zip(starts, ends):
        a, b = np.triu_indices(e0 - s0, 1)
        ia.append(a + s0)
        ib.append(b + s0)
    return np.concatenate(ia), np.concatenate(ib)


def _postings_candidate_pairs(
    postings: ray.data.Dataset,
    id_col: str,
    a_col: str,
    b_col: str,
    max_doc_freq: Optional[int] = None,
    n_parts: Optional[int] = None,
) -> ray.data.Dataset:
    """(bucket, id) postings → distinct candidate pairs (a < b), fully
    vectorized: one few-partition shuffle keyed on hash(bucket) co-locates
    each bucket, then numpy run bounds and triu emit per partition; a second
    few-partition shuffle dedups pairs. Replaces the per-row Python
    AggregateFn collection (the 800k-posting stress probe spent its time in
    per-row accumulate calls, not in pair math). ``max_doc_freq`` drops
    hotter-than-N buckets (recall knob; None = every bucket); ``n_parts``
    lets callers who know the posting count for free size the shuffle."""
    def emit_part(g: pd.DataFrame) -> pd.DataFrame:
        g, starts, ends = _bucket_runs(g, id_col)
        if max_doc_freq is not None:
            hot = ends - starts > max_doc_freq
            if hot.any():
                # no silent caps: say how many hot buckets the recall knob dropped
                logging.getLogger("pdftext_ray.dedup").warning(
                    "candidate generation pruned %d bucket(s) hotter than "
                    "max_doc_freq=%d in this partition; pairs supported ONLY by "
                    "pruned buckets are missed (recall knob)",
                    int(hot.sum()),
                    max_doc_freq,
                )
                starts, ends = starts[~hot], ends[~hot]
        ids = g[id_col].to_numpy()
        ia, ib = _run_pair_rows(starts, ends)
        return pd.DataFrame({a_col: ids[ia], b_col: ids[ib]}).drop_duplicates()

    cands = by_key((postings, "bucket"), emit_part, n_parts)
    return by_key((cands, (a_col, b_col)), lambda g: g[[a_col, b_col]].drop_duplicates(), n_parts)


def _shingle_postings(sigs: ray.data.Dataset, id_col: str) -> ray.data.Dataset:
    """(id, shingles) → inverted-index postings (bucket=shingle hash, id,
    m=|shingles|), one row per (doc, shingle) in one Arrow walk. Any pair
    sharing a bucket shares a shingle, so candidates from these postings
    have PERFECT recall for any Jaccard threshold > 0; the carried set size
    is what the exact shared-gram count needs."""
    def explode(batch: pa.Table) -> pa.Table:
        sh = batch.column("shingles")
        rows = pc.list_parent_indices(sh)
        return pa.table({
            "bucket": pc.list_flatten(sh),
            # id type carried by take: an all-empty-shingles block keeps a
            # typed id column for the downstream keyed shuffle
            id_col: pc.take(batch.column(id_col), rows),
            "m": pc.take(pc.cast(pc.list_value_length(sh), pa.int64()), rows),
        })

    return sigs.map_batches(explode, batch_format="pyarrow")


def _attach_blobs(
    pairs: ray.data.Dataset,
    pair_cols,  # list[(name, pa.DataType)] — pairs' current columns
    key_col: str,
    blobs: ray.data.Dataset,  # (id_col, blob binary)
    id_col: str,
    blob_col: str,
    num_buckets: int,
    how: str,
) -> ray.data.Dataset:
    """Attach ``blobs``' binary ``blob`` column, as ``blob_col``, to the pair
    rows whose ``key_col`` names its ``id_col``: one two-sided
    :func:`exchange.by_key` and one vectorized ``pd.merge`` per part (never
    ``Dataset.join``, whose zero-block partitions build column-less tables
    and fail key resolution). ``how="left"`` keeps pairs with no blob row,
    with ``b""``."""
    key_type = dict(pair_cols)[key_col]

    def rename(t: pa.Table) -> pa.Table:
        return pa.table({key_col: t.column(id_col), blob_col: t.column("blob")})

    def merge(g: dict) -> pd.DataFrame:
        m = g["pairs"].merge(g["blobs"], on=key_col, how=how)
        m[blob_col] = m[blob_col].where(m[blob_col].notna(), b"")
        return m

    return by_key({
        "pairs": (pairs, key_col, pa.schema(pair_cols)),
        "blobs": (blobs.map_batches(rename, batch_format="pyarrow"), key_col,
                  pa.schema([(key_col, key_type), (blob_col, pa.binary())])),
    }, merge, num_buckets)


def _schema_field_type(ds: ray.data.Dataset, col: str) -> Optional[pa.DataType]:
    """Arrow type of a column; None when the dataset is EMPTY (Ray returns
    no schema). A schema that exists but lacks the column raises — masking a
    typo'd column name as a type fallback would surface later as an opaque
    cast failure (round-3 review)."""
    sch = ds.schema()
    if sch is None:
        return None
    mapping = dict(zip(sch.names, sch.types))
    if col not in mapping:
        raise KeyError(f"column {col!r} not in schema {list(sch.names)}")
    return mapping[col]


def _verify_pairs_exact_jaccard(
    cands: ray.data.Dataset,
    sigs: ray.data.Dataset,
    id_col: str,
    a_col: str,
    b_col: str,
    threshold: float,
    out_col: str = "jaccard",
    num_partitions: Optional[int] = None,
    empty_id_type=None,  # pa.DataType | zero-arg callable returning one | None
) -> ray.data.Dataset:
    """Exact set-Jaccard verification of candidate pairs — fully distributed.

    The candidate pair table is merged back to the (id, shingles) signature
    table twice (once per side): two co-partitioned bucket shuffles of
    pre-shrunk shingle-hash arrays, never a driver-side store (the round-1
    broadcast shingle dict is gone). Shingle arrays ride the shuffle as
    packed int64-LE binary blobs decoded zero-copy with np.frombuffer.
    Output: (a, b, jaccard ≥ threshold).
    """
    if num_partitions is None:
        from pdftext_ray.ops import default_num_partitions

        num_partitions = default_num_partitions(per_cpu=1, lo=2, hi=64)

    _sch = sigs.schema()  # Ray Schema wrapper: parallel .names/.types lists
    if _sch is None:
        # an EMPTY corpus has no signature schema (Ray returns None) and can
        # have no pairs — emit a typed empty instead of crashing (empty
        # partitions/inputs are routine at scale). Callers pass the INPUT
        # table's id type — as a zero-arg CALLABLE so the lookup only runs
        # on this rare path, never on the hot path (round-3 review: an eager
        # ds.schema() can execute part of a lazy upstream plan) — with int64
        # as the last-resort fallback.
        if callable(empty_id_type):
            empty_id_type = empty_id_type()
        idt = empty_id_type or pa.int64()
        return ray.data.from_arrow(pa.table({
            a_col: pa.array([], idt),
            b_col: pa.array([], idt),
            out_col: pa.array([], pa.float64()),
        }))
    id_type = dict(zip(_sch.names, _sch.types))[id_col]

    def pack(t: pa.Table) -> pa.Table:
        return pa.table({id_col: t.column(id_col), "blob": pa.array(
            [np.asarray(sh, dtype="<i8").tobytes() for sh in t.column("shingles").to_pylist()],
            pa.binary())})

    packed = sigs.select_columns([id_col, "shingles"]).map_batches(pack, batch_format="pyarrow")
    pair_cols = [(a_col, id_type), (b_col, id_type)]
    joined = _attach_blobs(cands, pair_cols, a_col, packed, id_col, "_sh_a", num_partitions, "inner")
    joined = _attach_blobs(joined, pair_cols + [("_sh_a", pa.binary())], b_col, packed, id_col,
                           "_sh_b", num_partitions, "inner")

    def verify(batch: pa.Table) -> pa.Table:
        o_a, o_b, o_j = [], [], []
        for a, b, sa, sb in zip(
            batch.column(a_col).to_pylist(),
            batch.column(b_col).to_pylist(),
            batch.column("_sh_a").to_pylist(),
            batch.column("_sh_b").to_pylist(),
        ):
            ja = _jaccard_sorted(np.frombuffer(sa, dtype="<i8"), np.frombuffer(sb, dtype="<i8"))
            if ja >= threshold:
                o_a.append(a)
                o_b.append(b)
                o_j.append(float(round_half_away(ja, 6)))
        return pa.table({
            a_col: pa.array(o_a, batch.schema.field(a_col).type),
            b_col: pa.array(o_b, batch.schema.field(b_col).type),
            out_col: pa.array(o_j, pa.float64()),
        })

    return joined.map_batches(verify, batch_format="pyarrow")


def minhash_lsh_pairs(
    ds: ray.data.Dataset,
    num_perm: int = 64,
    bands: int = 16,
    ngram: int = 3,
    threshold: float = 0.7,
    id_col: str = "doc_id",
    text_col: str = "text",
    exact_recall: bool = False,
) -> ray.data.Dataset:
    """MinHash+LSH near-dup candidate generation + exact Jaccard verification.

    shingle→minhash (warm-state pool) → band explode (bucket keys ONLY — the
    shuffle carries (bucket, doc_id) pairs, never shingle arrays) →
    list-collecting aggregate per bucket → distinct candidate pairs →
    distributed exact-Jaccard verification (hash join of pairs back to the
    signature table — see ``_verify_pairs_exact_jaccard``; no driver-side
    shingle store). Output: (doc_a, doc_b, jaccard) with doc_a < doc_b.

    Candidate recall: with b bands × r rows, a pair at Jaccard j is banded
    with probability 1-(1-j^r)^b (64 perms / 16 bands / r=4 → ~64% at j=0.5,
    ~99.5% at j=0.8). ``exact_recall=True`` unions in candidates from the
    shingle inverted index (any pair sharing ≥1 shingle — perfect recall for
    j>0), making the verified output EXACTLY the ≥-threshold pair set; that's
    the mode the gate's all-pairs SQL oracle compares against. Banding alone
    is the probabilistic scale path.
    """
    in_id_type = lambda: _schema_field_type(ds, id_col)  # noqa: E731 — lazy, rare path only
    # signatures computed once, pinned (small table: ids + 64 ints + shingle
    # hashes per doc), consumed by banding + the verification joins
    sigs = ds.map_batches(
        MinHasher(num_perm, ngram, 7, id_col, text_col), batch_format="pyarrow", batch_size=1024,
    ).materialize()

    # band explode, bucket keys only: (63-bit band-qualified hash, doc_id) —
    # whole-batch matrix bucketizer (shared with the incremental family;
    # round-4 VERDICT #1 replaced the per-doc×band blake2b loop)
    def band_keys(batch: pa.Table) -> pa.Table:
        mat = _sig_matrix_from_list(batch.column("minhash"), num_perm)
        return _band_postings_table(batch, mat, bands, id_col)

    postings = sigs.map_batches(band_keys, batch_format="pyarrow")
    # sigs is materialized, so the doc count is free — size every downstream
    # keyed shuffle to the data (tiny corpora stop paying 128 partitions of
    # fixed cost; see default_num_partitions rows hint)
    from pdftext_ray.ops import default_num_partitions

    n_docs = sigs.count()
    if exact_recall:
        # inverted-shingle-index postings (perfect recall for j>0) share the
        # candidate generator with the band postings — a bucket is just a
        # co-occurrence key, and verification makes any superset exact
        postings = postings.union(_shingle_postings(sigs, id_col).select_columns(["bucket", id_col]))
    # pure banding: posting count is exactly n_docs*bands → size the shuffle.
    # exact_recall: shingle postings dominate AND per-bucket pair emission is
    # quadratic in bucket size — stragglers want full parallelism, so keep
    # the CPU-based default (a 24-part hint regressed 16→28 s at 5k docs)
    cands = _postings_candidate_pairs(
        postings, id_col, "doc_a", "doc_b",
        n_parts=None if exact_recall else default_num_partitions(rows=n_docs * bands),
    )
    return _verify_pairs_exact_jaccard(
        cands, sigs, id_col, "doc_a", "doc_b", threshold,
        num_partitions=default_num_partitions(per_cpu=1, lo=2, hi=64, rows=n_docs),
        empty_id_type=in_id_type,
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def simhash_batch(batch: pa.Table, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """64-bit SimHash over token hashes; emitted as 4×16-bit chunk columns
    (the banding keys for Hamming-distance candidate search).

    Per doc: one C-backed hashlib call per token, then ONE vectorized bit
    unpack + vote over the whole token-hash array (the per-token numpy loop
    was the hot spot at corpus scale).
    """
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    bit_idx = np.arange(64, dtype=np.uint64)
    hashes, chunks = [], [[], [], [], []]
    for t in texts:
        toks = t.split()
        if toks:
            hs = np.fromiter(
                (
                    int.from_bytes(hashlib.blake2b(tok.encode("utf-8"), digest_size=8).digest(), "big")
                    for tok in toks
                ),
                dtype=np.uint64,
                count=len(toks),
            )
            # votes per bit: (#ones)*2 - n  >0 ⇔ majority of ones
            ones = ((hs[:, None] >> bit_idx[None, :]) & 1).sum(axis=0, dtype=np.int64)
            acc = 2 * ones - len(toks)
        else:
            acc = np.full(64, 0, dtype=np.int64)
        sh = int(((acc > 0).astype(np.uint64) << bit_idx).sum())
        hashes.append(sh)
        for c in range(4):
            chunks[c].append((sh >> (16 * c)) & 0xFFFF)
    arrays = [pa.array(ids), pa.array([f"{h:016x}" for h in hashes], pa.string())]
    names = [id_col, "simhash"]
    for c in range(4):
        arrays.append(pa.array(chunks[c], pa.int32()))
        names.append(f"chunk{c}")
    return pa.Table.from_arrays(arrays, names=names)


def simhash_pairs(
    ds: ray.data.Dataset, max_hamming: int = 3, id_col: str = "doc_id", text_col: str = "text"
) -> ray.data.Dataset:
    """Near-dup pairs within Hamming distance ``max_hamming`` (≤ 3 guarantees
    at least one of the 4 16-bit chunks matches — pigeonhole banding).

    Plan: 4-chunk banded postings → ONE few-partition shuffle keyed on
    hash(bucket) → per-partition vectorized Hamming scan (XOR matrix +
    byte-popcount per bucket) → tiny Min-aggregate over the sparse pair set
    (a per-distinct-bucket map_groups would pay Ray's per-key overhead on
    ~4×n buckets).
    """
    from pdftext_ray.ops import default_num_partitions

    # materialized: the sig table is ~40 B/doc, and the free row count sizes
    # the bucket shuffle to the data (tiny corpora skip fixed partition cost)
    sigs = ds.map_batches(
        lambda b: simhash_batch(b, id_col, text_col), batch_format="pyarrow"
    ).materialize()
    n_parts = default_num_partitions(rows=4 * sigs.count())

    def explode(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        sims = np.array([int(s, 16) for s in batch.column("simhash").to_pylist()], dtype=np.uint64)
        o_key, o_id, o_sim = [], [], []
        sims_list = sims.tolist()  # converted once, reused per chunk
        for c in range(4):
            vals = batch.column(f"chunk{c}").to_pylist()
            o_key.extend(c * 65536 + v for v in vals)
            o_id.extend(ids)
            o_sim.extend(sims_list)
        return pa.Table.from_arrays(
            [
                pa.array(o_key, pa.int64()),
                pa.array(o_id, batch.schema.field(id_col).type),
                pa.array(o_sim, pa.uint64()),
            ],
            names=["bucket", id_col, "simhash"],
        )

    def part_pairs(part: pd.DataFrame) -> pd.DataFrame:
        part, starts, ends = _bucket_runs(part, id_col)
        ids_arr = part[id_col].to_numpy()
        sims_arr = part["simhash"].to_numpy(dtype=np.uint64)
        o_a, o_b, o_h = [], [], []
        for s0, e0 in zip(starts, ends):
            s = sims_arr[s0:e0]
            k = e0 - s0
            xors = s[:, None] ^ s[None, :]
            ham = _POPCOUNT8[xors.view(np.uint8).reshape(k, k, 8)].sum(axis=2, dtype=np.int64)
            ia, ib = np.nonzero(np.triu(ham <= max_hamming, k=1))
            if len(ia):
                o_a.append(ids_arr[s0:e0][ia])
                o_b.append(ids_arr[s0:e0][ib])
                o_h.append(ham[ia, ib])
        if not o_a:
            empty = part[id_col].iloc[:0]
            return pd.DataFrame({"doc_a": empty, "doc_b": empty, "hamming": pd.Series([], dtype=np.int64)})
        return pd.DataFrame({
            "doc_a": np.concatenate(o_a),
            "doc_b": np.concatenate(o_b),
            "hamming": np.concatenate(o_h).astype(np.int64),
        }).drop_duplicates(["doc_a", "doc_b"])

    pairs = by_key((sigs.map_batches(explode, batch_format="pyarrow"), "bucket"), part_pairs, n_parts)

    # global pair dedup (a pair can match on several chunks, landing in
    # different partitions): few-partition shuffle + vectorized min — NOT a
    # per-distinct-pair Min aggregate (~65 µs/key; the pair set is 200k+ on
    # duplication-heavy corpora)
    def min_part(g: pd.DataFrame):
        return g.groupby(["doc_a", "doc_b"], as_index=False)["hamming"].min()

    return by_key((pairs, ("doc_a", "doc_b")), min_part, n_parts)


def _collapse_identical_sets(
    sigs: ray.data.Dataset, id_col: str, hot_df_limit: Optional[int], n_parts: int
) -> Optional[ray.data.Dataset]:
    """Group documents whose DISTINCT gram sets are byte-identical (exact
    copies and trivial reorderings) into one representative each — the
    collapse that makes exact set-similarity joins survive duplication-
    saturated corpora (the ×10-replication stress drove the uncollapsed
    plan's Σ C(df,2) emission to 88× of its 1× cost; with collapse the
    per-gram df counts DISTINCT sets, so duplication adds output rows but
    no join work).

    Returns ONE materialized dataset tagged by row kind (materialized so
    the three downstream consumers don't re-execute the tokenize pass):
      kind=0 rep rows      (a=rep id, blob=packed sorted int64 shingles)
      kind=1 member lists  (a=rep id, blob=pickled sorted member ids;
                            only groups with ≥2 members)
      kind=2 clique pairs  (a<b within one identical-set group, jaccard=1.0
                            exactly — identical sets have |∩|=|∪|)
    Empty gram sets are dropped first: they can never pair (invariant 10 —
    the |∩|/greatest(|∪|,1) convention scores empty-vs-empty 0). Grouping
    compares the PACKED BYTES, not just the 63-bit set hash, so collapse
    itself adds no collision risk. ``hot_df_limit`` guards clique size:
    k identical copies emit C(k,2) output rows by definition — real output,
    but guarded like every other quadratic emission in this module (run
    ``exact_dedup`` first, or raise the limit, to accept it). Returns None
    when no document has a non-empty gram set.
    """

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).combine_chunks()
        keep_idx, packed, ghash = [], [], []
        for i, s in enumerate(batch.column("shingles").to_pylist()):
            if not s:
                continue
            p = np.asarray(s, dtype="<i8").tobytes()
            keep_idx.append(i)
            packed.append(p)
            ghash.append(
                int.from_bytes(hashlib.blake2b(p, digest_size=8).digest(), "big") >> 1
            )
        gh = np.asarray(ghash, dtype=np.int64) if ghash else np.array([], dtype=np.int64)
        return pa.table({
            id_col: ids.take(pa.array(keep_idx, pa.int64())),
            "_packed": pa.array(packed, pa.binary()),
            "_ghash": pa.array(gh, pa.int64()),
        })

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["_ghash", "_packed", id_col])
        ghs = g["_ghash"].to_numpy()
        pk = g["_packed"].to_numpy()
        ids = g[id_col].to_numpy()
        starts = np.flatnonzero(_run_starts(ghs) | _run_starts(pk))
        ends = np.r_[starts[1:], len(g)]
        kind, a, b, j, blob, gsize = [], [], [], [], [], []
        for s0, e0 in zip(starts, ends):
            k = e0 - s0
            run = ids[s0:e0]
            rep = run[0]
            kind.append(0)
            a.append(rep)
            b.append(rep)
            j.append(0.0)
            blob.append(pk[s0])
            gsize.append(0)
            if k < 2:
                continue
            if hot_df_limit is not None and k > hot_df_limit:
                raise ValueError(
                    f"ngram_jaccard_pairs: {k} documents share an IDENTICAL "
                    f"gram set (> hot_df_limit={hot_df_limit}); their clique "
                    f"alone is C({k},2)={k * (k - 1) // 2} output pairs. Run "
                    "exact_dedup first to drop exact copies, or raise "
                    "hot_df_limit explicitly to accept the output size."
                )
            kind.append(1)
            a.append(rep)
            b.append(rep)
            j.append(0.0)
            blob.append(pickle.dumps(run.tolist()))
            gsize.append(k)
            ia, ib = np.triu_indices(k, 1)
            m = len(ia)
            kind.extend([2] * m)
            a.extend(run[ia].tolist())
            b.extend(run[ib].tolist())
            j.extend([1.0] * m)
            blob.extend([b""] * m)
            gsize.extend([0] * m)
        return pd.DataFrame({
            "kind": pd.Series(kind, dtype=np.int8),
            "a": pd.Series(a, dtype=g[id_col].dtype),
            "b": pd.Series(b, dtype=g[id_col].dtype),
            "jaccard": pd.Series(j, dtype=np.float64),
            "blob": pd.Series(blob, dtype=object),
            "gsize": pd.Series(gsize, dtype=np.int64),
        })

    grouped = by_key(
        (sigs.map_batches(tag, batch_format="pyarrow"), lambda t: t.column("_ghash").to_numpy() % n_parts),
        per_part,
    ).materialize()
    if grouped.count() == 0:
        return None
    return grouped


def _split_collapsed(grouped: ray.data.Dataset, id_col: str):
    """Materialized collapse table → (reps, members, cliques) via vectorized
    kind masks (never a row filter(lambda) — invariant 3)."""

    def unpack_reps(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), 0))
        sh = [np.frombuffer(p, dtype="<i8").tolist() for p in t.column("blob").to_pylist()]
        return pa.table({
            id_col: t.column("a"),
            "shingles": pa.array(sh, pa.list_(pa.int64())),
        })

    def member_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), 1))
        return pa.table({id_col: t.column("a"), "blob": t.column("blob")})

    def clique_rows(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("kind"), 2))
        return pa.table({
            "id_a": t.column("a"),
            "id_b": t.column("b"),
            "jaccard": t.column("jaccard"),
        })

    return (
        grouped.map_batches(unpack_reps, batch_format="pyarrow"),
        grouped.map_batches(member_rows, batch_format="pyarrow"),
        grouped.map_batches(clique_rows, batch_format="pyarrow"),
    )


# above this many TOTAL duplicated-group member ids, rep-pair expansion stops
# broadcasting the member map and switches to the co-partitioned attach plan
_EXPAND_BROADCAST_LIMIT = 2_000_000


def _expand_rep_pairs(
    rep_pairs: ray.data.Dataset,
    members: ray.data.Dataset,
    id_col: str,
    id_type: pa.DataType,
    n_parts: int,
    total_member_ids: int,
) -> ray.data.Dataset:
    """Representative pairs (ra, rb, j) → all member pairs. Identical sets
    within a group mean every member pair carries the rep pair's EXACT
    jaccard; groups are disjoint, so no pair is emitted twice. Expansion is
    output-bound: Σ |Ga|×|Gb| rows, the true result size.

    The member map is one entry per MULTI-MEMBER group — a classic small
    side. Up to ``_EXPAND_BROADCAST_LIMIT`` total member ids it is collected
    once and closure-captured (Ray ships large UDF closures through the
    object store and each worker process deserializes once), making expansion a
    shuffle-free ``map_batches``; past the limit it falls back to two
    co-partitioned bucket attaches (``_attach_blobs``) that never hold the
    map in one process."""

    def cross(o_a, o_b, o_j, mem_a, mem_b, j):
        for x in mem_a:
            for y in mem_b:
                if x < y:
                    o_a.append(x)
                    o_b.append(y)
                else:
                    o_a.append(y)
                    o_b.append(x)
                o_j.append(j)

    if total_member_ids == 0:
        return rep_pairs  # every group is a singleton — pairs ARE final

    if total_member_ids <= _EXPAND_BROADCAST_LIMIT:
        mem_map = {
            r[id_col]: pickle.loads(r["blob"])
            for batch in members.iter_batches(batch_format="pyarrow")
            for r in batch.to_pylist()
        }

        def expand_bcast(batch: pa.Table) -> pa.Table:
            o_a, o_b, o_j = [], [], []
            for a, b, j in zip(
                batch.column("id_a").to_pylist(),
                batch.column("id_b").to_pylist(),
                batch.column("jaccard").to_pylist(),
            ):
                cross(o_a, o_b, o_j, mem_map.get(a, (a,)), mem_map.get(b, (b,)), j)
            return pa.table({
                "id_a": pa.array(o_a, id_type),
                "id_b": pa.array(o_b, id_type),
                "jaccard": pa.array(o_j, pa.float64()),
            })

        return rep_pairs.map_batches(expand_bcast, batch_format="pyarrow")

    pair_cols = [("id_a", id_type), ("id_b", id_type), ("jaccard", pa.float64())]
    with_a = _attach_blobs(rep_pairs, pair_cols, "id_a", members, id_col, "_mem_a", n_parts, "left")
    with_b = _attach_blobs(
        with_a, pair_cols + [("_mem_a", pa.binary())], "id_b", members, id_col, "_mem_b", n_parts,
        "left",
    )

    def expand(batch: pa.Table) -> pa.Table:
        o_a, o_b, o_j = [], [], []
        for a, b, j, ma, mb in zip(
            batch.column("id_a").to_pylist(),
            batch.column("id_b").to_pylist(),
            batch.column("jaccard").to_pylist(),
            batch.column("_mem_a").to_pylist(),
            batch.column("_mem_b").to_pylist(),
        ):
            cross(o_a, o_b, o_j, pickle.loads(ma) if ma else (a,), pickle.loads(mb) if mb else (b,), j)
        return pa.table({
            "id_a": pa.array(o_a, id_type),
            "id_b": pa.array(o_b, id_type),
            "jaccard": pa.array(o_j, pa.float64()),
        })

    return with_b.map_batches(expand, batch_format="pyarrow")


def ngram_jaccard_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.5,
    n: int = 3,
    id_col: str = "doc_id",
    text_col: str = "text",
    max_doc_freq: Optional[int] = None,
    hot_df_limit: Optional[int] = 1000,
) -> ray.data.Dataset:
    """Exact word-n-gram Jaccard similarity self-join (pairs ≥ threshold).

    Semantics mirror the SQL oracle exactly: tokens = \\S+ runs; grams only
    when the doc has ≥ n tokens; distinct gram sets; jaccard = |∩| / |∪|.

    Plan (one, fully distributed; CLAUDE.md invariant 14):
      1. Collapse byte-identical gram sets (``_collapse_identical_sets``):
         each group joins as ONE representative and its internal pairs emit
         directly as jaccard-1.0 cliques, so join cost scales with DISTINCT
         sets, not documents (the ×10-exact-copy stress ran 322 s before the
         collapse, with per-gram df emission ∝ copies²).
      2. Count shared grams exactly over the representatives: inverted-index
         postings (gram, id, |grams|) → per-gram buckets emit one pair row
         per SHARED gram → the count per pair is EXACTLY |A∩B| (each bucket
         is one distinct gram, each set appears in it at most once), and the
         carried set sizes make ``jaccard = c / (m_a + m_b - c)`` exact with
         no second pass over the gram data. Perfect recall for any
         threshold > 0 (a pair with positive Jaccard shares a gram).
      3. Expand representative pairs back to member pairs
         (``_expand_rep_pairs``): identical sets share every gram, so a
         member pair's jaccard IS its rep pair's.
    Grams are 61-bit blake2b hashes; hashed-set Jaccard equals string-gram
    Jaccard up to a ~2⁻⁴⁰ per-corpus collision probability.

    Step 2 is DF-GUARDED, not silently quadratic: bucket pair emission is
    Σ C(df,2) rows, and any gram whose distinct-set frequency exceeds
    ``hot_df_limit`` (default 1000 → up to C(1000,2) ≈ 500k emitted rows for
    that one gram) raises with the df and the two remedies. The same limit
    guards a clique of identical sets. ``hot_df_limit=None`` drops the
    guard. ``max_doc_freq=N`` replaces step 2 with a DF-pruned verify: grams
    hotter than N sets are dropped from candidate generation, and each
    candidate pair gets its exact Jaccard over the full gram sets
    (``_verify_pairs_exact_jaccard``). Every EMITTED value stays exact;
    only pairs whose shared grams are ALL hotter than N can be missed (a
    recall knob, like LSH banding), and exact copies never are — the
    clique step emits them whatever their df. The pruned bucket count is
    logged per partition — no silent caps.
    """
    from pdftext_ray.ops import default_num_partitions

    n_parts = default_num_partitions()

    def gram_sets(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_pylist()
        out = [
            np.unique(_shingle_hashes(t, n, short_fallback=False)).astype(np.int64).tolist()
            for t in batch.column(text_col).to_pylist()
        ]
        return pa.table({
            id_col: pa.array(ids, batch.schema.field(id_col).type),
            "shingles": pa.array(out, pa.list_(pa.int64())),
        })

    sigs = ds.map_batches(gram_sets, batch_format="pyarrow", batch_size=1024)
    grouped = _collapse_identical_sets(sigs, id_col, hot_df_limit, n_parts)
    if grouped is None:  # no doc has a non-empty gram set → no pairs
        idt = _schema_field_type(ds, id_col) or pa.int64()
        return ray.data.from_arrow(pa.table({
            "id_a": pa.array([], idt),
            "id_b": pa.array([], idt),
            "jaccard": pa.array([], pa.float64()),
        }))
    reps, members, cliques = _split_collapsed(grouped, id_col)
    postings = _shingle_postings(reps, id_col)
    if max_doc_freq is not None:
        cands = _postings_candidate_pairs(
            postings.select_columns(["bucket", id_col]), id_col, "id_a", "id_b",
            max_doc_freq=max_doc_freq,
        )
        rep_pairs = _verify_pairs_exact_jaccard(
            cands, reps, id_col, "id_a", "id_b", threshold,
            empty_id_type=lambda: _schema_field_type(ds, id_col),
        )
    else:
        rep_pairs = _exact_jaccard_from_postings(postings, id_col, threshold, hot_df_limit, n_parts)
    id_type = _schema_field_type(grouped, "a")
    total_member_ids = int(grouped.sum("gsize") or 0)
    expanded = _expand_rep_pairs(
        rep_pairs, members, id_col, id_type, n_parts, total_member_ids
    )
    return cliques.union(expanded)


def _exact_jaccard_from_postings(
    postings: ray.data.Dataset,
    id_col: str,
    threshold: float,
    hot_df_limit: Optional[int],
    n_parts: int,
) -> ray.data.Dataset:
    """(bucket, id, m) postings → exact jaccard pairs ≥ threshold.

    Bucket co-location + one-row-per-shared-gram pair emission in ONE
    few-partition shuffle with a vectorized per-partition scan (NO
    per-distinct-gram aggregate — Ray's per-key overhead dominated the
    collect at stress scale), then a second few-partition shuffle counts
    pairs vectorized. Emissions are deliberately NOT deduped: the count
    per pair IS |A∩B|."""

    def part_emit(part: pd.DataFrame) -> pd.DataFrame:
        part, starts, ends = _bucket_runs(part, id_col)
        sizes = ends - starts
        if hot_df_limit is not None and (sizes > hot_df_limit).any():
            k = int(sizes[sizes > hot_df_limit][0])
            raise ValueError(
                f"ngram_jaccard_pairs: gram with doc_freq={k} exceeds "
                f"hot_df_limit={hot_df_limit}; exact emission costs "
                f"C(df,2)={k * (k - 1) // 2} pair rows for this one gram. "
                "Pass max_doc_freq=N for the DF-pruned two-phase plan, or "
                "raise hot_df_limit explicitly to accept the cost."
            )
        ids = part[id_col].to_numpy()
        m = part["m"].to_numpy(dtype=np.int64)
        ia, ib = _run_pair_rows(starts, ends)
        return pd.DataFrame({"id_a": ids[ia], "id_b": ids[ib], "m_a": m[ia], "m_b": m[ib]})

    emissions = by_key((postings, "bucket"), part_emit, n_parts)

    def count_pairs(g: pd.DataFrame) -> pd.DataFrame:
        agg = g.groupby(["id_a", "id_b", "m_a", "m_b"], as_index=False).size()
        c = agg["size"].to_numpy(dtype=np.float64)
        ma = agg["m_a"].to_numpy(dtype=np.float64)
        mb = agg["m_b"].to_numpy(dtype=np.float64)
        j = c / np.maximum(ma + mb - c, 1.0)
        keep = j >= threshold
        return pd.DataFrame({
            "id_a": agg["id_a"].values[keep],
            "id_b": agg["id_b"].values[keep],
            "jaccard": round_half_away(j[keep], 6),
        })

    return by_key((emissions, ("id_a", "id_b")), count_pairs, n_parts)


def substring_dedup(
    ds: ray.data.Dataset,
    k: int = 8,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """Exact substring-level dedup (the windowed variant of Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better",
    arXiv:2107.06499): every k-token window occurring MORE THAN ONCE
    corpus-wide keeps only its first occurrence in (doc_id, token_start)
    order; a token covered by any NON-canonical duplicated window is removed
    from its document.

    Output: (doc_id, text, n_removed) with TOKEN-level semantics — the
    output text is the kept tokens joined by single spaces (whitespace is
    normalized even for untouched docs) so the DuckDB oracle can express
    reconstruction with ``string_agg``; ``n_removed`` is the BIGINT removed-
    token count.

    Plan (two few-partition shuffles, no all-pairs work): tokenize + rolling
    window hashes per batch → shuffle on hash(window) co-locates every
    occurrence of a window, a vectorized run-scan keeps each run's first row
    and emits the rest as (doc_id, start) removals — exact, since all
    occurrences of a hash land in one partition — → shuffle on hash(doc)
    merges removal starts with the doc rows (co-partitioned bucket merge,
    never ``Dataset.join`` — CLAUDE.md invariant 7) and rebuilds each text.
    Window identity is the 61-bit blake2b of the space-joined window
    (``_shingle_hashes`` — same ~2⁻⁴⁰ per-corpus collision contract as
    ngram_jaccard). Canonical order is lexicographic (doc_id, start); the
    SQL oracle's ``doc_id*1000000+start`` encoding matches for docs under
    one million tokens.
    """
    def windows(batch: pa.Table) -> pa.Table:
        o_h: List[int] = []
        o_id: List = []
        o_st: List[int] = []
        for did, t in zip(batch.column(id_col).to_pylist(), batch.column(text_col).to_pylist()):
            hs = _shingle_hashes(t, k, short_fallback=False)
            o_h.extend(hs.astype(np.int64).tolist())
            o_id.extend([did] * len(hs))
            o_st.extend(range(len(hs)))
        return pa.table({
            "whash": pa.array(o_h, pa.int64()),
            id_col: pa.array(o_id, batch.schema.field(id_col).type),
            "start": pa.array(o_st, pa.int64()),
        })

    def emit_removals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["whash", id_col, "start"])
        h = g["whash"].to_numpy()
        dup = np.zeros(len(g), dtype=bool)
        if len(g):
            dup[1:] = h[1:] == h[:-1]  # every row after its run head
        return g.loc[dup, [id_col, "start"]]

    removals = by_key(
        (ds.map_batches(windows, batch_format="pyarrow", batch_size=1024), "whash"), emit_removals)
    # both sides carry the doc id type (empty removal partitions would
    # otherwise carry a pandas-inferred type — invariant 12)
    id_type = _schema_field_type(ds, id_col) or pa.int64()

    def rebuild(g: dict) -> pd.DataFrame:
        doc_rows, ranges = g["docs"], g["removals"]
        starts_by_doc = ranges.groupby(id_col)["start"].apply(list).to_dict()
        out_id, out_text, out_rm = [], [], []
        for did, t in zip(doc_rows[id_col], doc_rows[text_col]):
            toks = t.split()
            starts = starts_by_doc.get(did)
            if starts:
                removed = np.zeros(len(toks), dtype=bool)
                for s in starts:
                    removed[s : s + k] = True
                kept = [tok for tok, r in zip(toks, removed) if not r]
                out_rm.append(int(removed.sum()))
            else:
                kept = toks
                out_rm.append(0)
            out_id.append(did)
            out_text.append(" ".join(kept))
        # every bucket holds ≥1 doc row (removals hash on the same id with
        # the same fn), so the output is never an empty/untyped frame
        return pd.DataFrame({
            id_col: pd.Series(out_id, dtype=doc_rows[id_col].dtype),
            text_col: pd.Series(out_text, dtype=object),
            "n_removed": pd.Series(out_rm, dtype="int64"),
        })

    return by_key({
        "docs": (ds.select_columns([id_col, text_col]), id_col,
                 pa.schema([(id_col, id_type), (text_col, pa.string())])),
        "removals": (removals, id_col, pa.schema([(id_col, id_type), ("start", pa.int64())])),
    }, rebuild)


def embedding_pairs_bruteforce(
    ds: ray.data.Dataset,
    threshold: float = 0.45,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_rows: int = 1_000_000,
) -> ray.data.Dataset:
    """Exact cosine similarity self-join: all pairs with cosine ≥ threshold.

    The (id, unit-vector) matrix is the broadcast side: it is assembled by a
    Ray TASK from the dataset's Arrow block refs (the driver never collects
    rows — round 1's ``take_all`` is gone) and pinned in the object store;
    each batch computes its rows against it with one matmul and emits pairs
    where batch_id < other_id — every pair produced exactly once, no shuffle.
    O(n²/p) compute, O(n·d) memory per worker: the right plan up to the
    ``max_rows`` guard (default 10⁶ vectors — raises beyond it; use the LSH
    variant ``embedding_dup_pairs`` past that).
    """
    import ray

    # one materialized projection feeds the guard count (free), the
    # broadcast assembly AND the scoring pass — the lineage executes once,
    # not three times (count / to_arrow_refs / map_batches each re-ran it)
    proj = ds.select_columns([id_col, vec_col]).materialize()
    n = proj.count()
    if n > max_rows:
        raise ValueError(
            f"embedding_pairs_bruteforce: {n} rows exceeds max_rows={max_rows}; "
            "use embedding_dup_pairs (LSH) or raise max_rows explicitly"
        )

    @ray.remote
    def _assemble(*tables: pa.Table):
        t = pa.concat_tables(tables)
        ids = np.asarray(t.column(id_col).to_pylist(), dtype=np.int64)
        mat = _unit_rows(vec_matrix(t.column(vec_col)))
        return ids, mat

    ref = _assemble.remote(*proj.to_arrow_refs())
    ds = proj

    class _Pairs:
        """Actor-pool scorer: the broadcast (ids, unit-matrix) pair is
        fetched ONCE per actor in __init__ (VERDICT r2: a per-batch ray.get
        re-deserializes the id array every batch; plasma makes the bytes
        near-free on a node, the numpy view reconstruction is not). The ref
        arrives via fn_constructor_args, NOT a closure capture; since ANY
        ObjectRef among constructor args lands in the object store and would
        make an actor RESTART fail if it were collected, restarts are
        disabled explicitly (max_restarts=0) — the streaming executor
        re-creates a fresh actor from lineage instead (VERDICT r3 item 4)."""

        def __init__(self, broadcast_ref):
            self.ids_o, self.mat_o = ray.get(broadcast_ref)

        def __call__(self, batch: pa.Table) -> pa.Table:
            ids_b = batch.column(id_col).to_numpy(zero_copy_only=False).astype(np.int64)
            if len(ids_b) == 0:
                return pa.Table.from_arrays(
                    [pa.array([], pa.int64()), pa.array([], pa.int64()), pa.array([], pa.float64())],
                    names=["id_a", "id_b", "cosine"],
                )
            vecs_b = _unit_rows(vec_matrix(batch.column(vec_col)))
            sims = vecs_b @ self.mat_o.T
            bi, oj = np.nonzero((sims >= threshold) & (ids_b[:, None] < self.ids_o[None, :]))
            return pa.Table.from_arrays(
                [
                    pa.array(ids_b[bi], pa.int64()),
                    pa.array(self.ids_o[oj], pa.int64()),
                    pa.array(round_half_away(sims[bi, oj], 4), pa.float64()),
                ],
                names=["id_a", "id_b", "cosine"],
            )

    from pdftext_ray.ops import default_num_partitions

    return ds.map_batches(
        _Pairs, batch_format="pyarrow", batch_size=2048,
        concurrency=(1, default_num_partitions()),
        fn_constructor_args=(ref,),
        max_restarts=0,
    )


def _unit_rows(mat: np.ndarray) -> np.ndarray:
    if mat.size == 0:
        return mat
    from pdftext_ray.ops.similarity import _unit

    return _unit(mat)


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------

def embedding_dup_pairs(
    ds: ray.data.Dataset,
    threshold: float = 0.95,
    n_planes: int = 12,
    seed: int = 11,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    probe_radius: int = 1,
) -> ray.data.Dataset:
    """Near-dup pairs by embedding cosine ≥ threshold.

    Random-hyperplane LSH buckets (seeded, broadcast planes) → exact cosine
    verification within buckets. Multi-probe: each vector also lands in every
    bucket within Hamming distance ``probe_radius`` of its code, so
    near-identical vectors split across plane boundaries still meet
    (recall/cost knobs: n_planes, probe_radius).

    Exact-verification mode (the similarity_ivf_exact trick, SURVEY §2.6):
    ``probe_radius == n_planes`` probes ALL 2^n_planes buckets, so every pair
    is co-bucketed and the exact cosine verify makes the output EXACTLY the
    ≥-threshold pair set — SQL-oracle-comparable while exercising the real
    bucketize/probe/verify machinery. Use small n_planes there (cost is
    2^n_planes row copies); the default (12 planes, radius 1) is the
    approximate scale path.
    """
    from itertools import combinations

    if not 0 <= probe_radius <= n_planes:
        raise ValueError(f"probe_radius must be in [0, {n_planes}], got {probe_radius}")
    masks = [0] + [
        sum(1 << p for p in combo)
        for r in range(1, probe_radius + 1)
        for combo in combinations(range(n_planes), r)
    ]

    def bucketize(batch: pa.Table) -> pa.Table:
        return _lsh_bucket_table(batch, id_col, vec_col, n_planes, seed, masks)

    pair_schema = pa.schema([("id_a", pa.int64()), ("id_b", pa.int64()), ("cosine", pa.float64())])

    def bucket_pairs(group: pd.DataFrame):
        if len(group) < 2:  # most buckets: skip the frame ops below
            return pair_schema.empty_table()
        g = group.sort_values(id_col).drop_duplicates(id_col).reset_index(drop=True)
        if len(g) < 2:
            return pair_schema.empty_table()
        mat = np.asarray(g[vec_col].tolist(), dtype=np.float64)
        sims = mat @ mat.T
        ia, ib = np.triu_indices(len(g), k=1)
        keep = sims[ia, ib] >= threshold
        return from_pandas_clean(pd.DataFrame(
            {
                "id_a": g[id_col].values[ia[keep]].astype(np.int64),
                "id_b": g[id_col].values[ib[keep]].astype(np.int64),
                "cosine": round_half_away(sims[ia, ib][keep], 6),
            }
        ))

    pairs = by_key((ds.map_batches(bucketize, batch_format="pyarrow"), "bucket"),
                   lambda g: _per_bucket(g, bucket_pairs, pair_schema))

    # global pair dedup (a pair co-buckets in several probed buckets): the
    # few-partition shuffle + vectorized max pattern (invariant 9) — NOT a
    # per-distinct-pair Max aggregate (~65 µs/key, and the distinct-key count
    # here IS the pair count, which explodes exactly on duplication-heavy
    # corpora, the op's whole target).
    return by_key((pairs, ("id_a", "id_b")),
                  lambda g: g.groupby(["id_a", "id_b"], as_index=False)["cosine"].max())


def semantic_dedup(
    ds: ray.data.Dataset,
    k: int = 8,
    iters: int = 5,
    threshold: float = 0.4,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    max_cluster_rows: int = 200_000,
    scan_block_bytes: int = 64_000_000,
) -> ray.data.Dataset:
    """SemDeDup-style embedding dedup (Abbas et al. 2023, arXiv:2303.09540):
    k-means partitions the corpus, then cosine near-dup pruning runs only
    WITHIN each cluster — O(n²/k) pair compute instead of the all-pairs
    O(n²), which is what makes embedding dedup feasible at corpus scale
    (size k ≈ n / target_cluster_size so a cluster's matrix fits a worker).

    Drop rule (deterministic, SQL-expressible): a vector is dropped iff ANY
    lower-id vector in the same cluster has cosine > threshold — the
    keep-lowest-id convention shared with the corpus dedup ops. Plan:
    ``kmeans_assign(keep_vec=True)`` (centroid state only, no shuffle), then
    ONE groupby(cluster) shuffle and a single vectorized masked-matmul scan
    per cluster. Output: (vec_id, cluster) of KEPT vectors.

    ``max_cluster_rows`` is the loud OOM guard (round-4 VERDICT #2): the
    within-cluster matmul is O(rows²) memory, and nothing else stops a
    too-small ``k`` from building a worker-killing similarity matrix — the
    default caps a cluster at ~320 GB·FLOP / 320 GB pairwise scan worst
    case (200k² float64 sims ≈ 320 GB is ALREADY too big for one worker,
    but the scan below is row-blocked, so memory is rows×block — the cap
    bounds compute runaway, raise it only with measured headroom).
    """
    import pandas as pd

    from pdftext_ray.ops.cluster import kmeans_assign

    assigned = kmeans_assign(
        ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col, keep_vec=True
    )

    def prune(g: pd.DataFrame) -> pa.Table:
        if len(g) > max_cluster_rows:
            raise ValueError(
                f"semantic_dedup cluster {int(g['cluster'].iloc[0])} has "
                f"{len(g)} rows > max_cluster_rows={max_cluster_rows}; the "
                f"within-cluster cosine scan is quadratic — raise k (target "
                f"k ≈ n / desired_cluster_size) or max_cluster_rows"
            )
        ids = g[id_col].to_numpy()
        order = np.argsort(ids)
        ids = ids[order]
        mat = _unit_rows(np.asarray(list(g[vec_col].to_numpy()[order]), dtype=np.float64))
        # drop i iff any j < i (strict lower triangle) with cosine > thresh —
        # row-blocked so peak memory is block×rows (≈512 MB), not rows²
        n = len(ids)
        drop = np.zeros(n, dtype=bool)
        blk = max(1, int(scan_block_bytes // (8 * max(n, 1))))
        col = np.arange(n)[None, :]
        for s in range(0, n, blk):
            e = min(s + blk, n)
            sims = mat[s:e] @ mat.T
            lower = col < np.arange(s, e)[:, None]
            drop[s:e] = np.any((sims > threshold) & lower, axis=1)
        keep = ~drop
        return pa.Table.from_arrays(
            [
                pa.array(ids[keep].astype(np.int64), pa.int64()),
                pa.array(g["cluster"].to_numpy()[order][keep].astype(np.int64), pa.int64()),
            ],
            names=[id_col, "cluster"],
        )

    return assigned.groupby("cluster").map_groups(prune, batch_format="pandas")


# ---------------------------------------------------------------------------
# End-to-end fuzzy dedup: pairs → components → keep best per cluster
# ---------------------------------------------------------------------------

# up to this many near-dup pairs, fuzzy_dedup_keepbest labels clusters by
# union-find on the driver and broadcasts the labels; past it, by the
# distributed connected components and a keyed label merge
_KEEPBEST_BROADCAST_PAIRS = 2_000_000


def _broadcast_cluster_tags(
    ds: ray.data.Dataset, pairs: ray.data.Dataset, id_col: str, text_col: str
) -> ray.data.Dataset:
    """(doc_id, n_tokens, cluster_id or -1) per doc for a small pair set:
    union-find on the driver, labels broadcast once via ray.put, ONE
    vectorized pass tags every doc."""
    import ray as _ray

    from pdftext_ray.ops import cluster as _cluster
    from pdftext_ray.ops import probe

    lab = _cluster.connected_components_local(pairs, "doc_a", "doc_b")
    # broadcast SORTED numpy arrays, not a dict: plasma reconstructs numpy
    # views in microseconds per batch, a pickled dict re-deserializes every
    # entry every batch; searchsorted probes need no per-worker setup
    _keys = lab.column("doc_id").to_numpy(zero_copy_only=False).astype(np.int64)
    _vals = lab.column("cluster_id").to_numpy(zero_copy_only=False).astype(np.int64)
    _order = np.argsort(_keys, kind="mergesort")
    ref = _ray.put((_keys[_order], _vals[_order]))

    def tag(t: pa.Table) -> pa.Table:
        keys, vals = _ray.get(ref)
        ids = pc.cast(t.column(id_col).combine_chunks(), pa.int64())
        # hit-substitution, not map().fillna(): the NaN route coerces int64
        # cluster ids through float64, corrupting ids past 2^53
        ids_np = np.asarray(ids)
        clus = np.where(probe.member_sorted(ids_np, keys),
                        probe.substitute_sorted(ids_np, keys, vals), -1)
        return pa.table({
            "doc_id": ids,
            "n_tokens": pc.cast(pc.count_substring_regex(t.column(text_col), r"\S+"), pa.int64()),
            "cluster_id": pa.array(clus, pa.int64()),
        })

    return ds.map_batches(tag, batch_format="pyarrow")


def _distributed_cluster_tags(
    ds: ray.data.Dataset, pairs: ray.data.Dataset, id_col: str, text_col: str, n_parts: int
) -> ray.data.Dataset:
    """(doc_id, n_tokens, cluster_id or -1) per doc for any pair set: the
    distributed connected components, then the label table (only clustered
    docs — tiny vs corpus) attached to the narrow (id, n_tokens) projection
    with ONE two-sided keyed merge on doc_id (never ``Dataset.join``, per its
    empty-partition caveat)."""
    from pdftext_ray.ops import cluster as _cluster

    labels = _cluster.connected_components_distributed(pairs, "doc_a", "doc_b")

    def lengths(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t.column(id_col),
            "n_tokens": pc.count_substring_regex(t.column(text_col), r"\S+"),
        })

    def merge(g: dict):
        lens = g["docs"]
        labs = g["labels"].drop_duplicates("doc_id").set_index("doc_id")["cluster_id"]
        # hit-substitution, not a left merge + fillna: a NaN-bearing merge
        # column is float64 and corrupts cluster ids past 2^53
        cl = np.full(len(lens), -1, dtype=np.int64)
        hit = lens["doc_id"].isin(labs.index).to_numpy()
        if hit.any():
            cl[hit] = labs.loc[lens["doc_id"].iloc[hit]].to_numpy()
        return pd.DataFrame({"doc_id": lens["doc_id"].values,
                             "n_tokens": lens["n_tokens"].values,
                             "cluster_id": cl})

    i64 = pa.int64()
    return by_key({
        "docs": (ds.map_batches(lengths, batch_format="pyarrow"), "doc_id",
                 pa.schema([("doc_id", i64), ("n_tokens", i64)])),
        "labels": (labels, "doc_id", pa.schema([("doc_id", i64), ("cluster_id", i64)])),
    }, merge, n_parts)


def _cluster_winners(g: pd.DataFrame) -> pd.DataFrame:
    """Per-cluster argmax of a part: the longest doc (ties → lowest id)
    with its cluster's size as ``n_dups``."""
    g = g.sort_values(["cluster_id", "n_tokens", "doc_id"], ascending=[True, False, True])
    sizes = g.groupby("cluster_id", sort=False)["doc_id"].transform("size")
    first = ~g["cluster_id"].duplicated()
    return pd.DataFrame({
        "doc_id": g.loc[first, "doc_id"].astype(np.int64),
        "n_tokens": g.loc[first, "n_tokens"].astype(np.int64),
        "n_dups": sizes[first].astype(np.int64),
    })


def fuzzy_dedup_keepbest(
    ds: ray.data.Dataset,
    threshold: float = 0.4,
    id_col: str = "doc_id",
    text_col: str = "text",
    exact_recall: bool = True,
) -> ray.data.Dataset:
    """Full fuzzy-dedup flow with best-doc retention — the shape production
    corpus cleaning actually ships: MinHash near-dup pairs →
    connected components → per-cluster ARGMAX keeping the longest doc
    (ties → lowest id), singletons kept as-is.

    Output (all int64): ``(doc_id, n_tokens, n_dups)`` — one row per
    SURVIVING doc, ``n_dups`` = number of docs it represents (cluster size;
    1 for singletons).

    Plan: every doc is tagged (doc_id, n_tokens, cluster_id or -1). Up to
    ``_KEEPBEST_BROADCAST_PAIRS`` pairs (near-dup pair sets are sparse) a
    driver union-find and broadcast labels tag it, replacing both the
    iterative CC rounds and the label merge (measured 21 s → ~9 s at 100k
    docs / 256 pairs); past it the distributed components and a keyed label
    merge do. Then singletons emit directly, and winners resolve with one
    hash(cluster_id) shuffle of the clustered rows and a vectorized per-part
    argmax. The text column never enters a shuffle.
    """
    from pdftext_ray.ops import default_num_partitions

    pairs = minhash_lsh_pairs(
        ds, threshold=threshold, id_col=id_col, text_col=text_col,
        exact_recall=exact_recall,
    ).materialize()
    n_pairs = pairs.count()
    if n_pairs <= _KEEPBEST_BROADCAST_PAIRS:
        tagged = _broadcast_cluster_tags(ds, pairs, id_col, text_col)
        # the argmax shuffle only carries clustered rows (≤ 2·pairs) — size it so
        n_parts = default_num_partitions(per_cpu=2, lo=4, hi=128, rows=2 * n_pairs)
    else:
        n_parts = default_num_partitions(per_cpu=2, lo=4, hi=128)
        tagged = _distributed_cluster_tags(ds, pairs, id_col, text_col, n_parts)
    tagged = tagged.materialize()  # narrow (24 B/doc); read by both outputs below

    def singles(t: pa.Table) -> pa.Table:
        k = t.filter(pc.equal(t.column("cluster_id"), -1))
        return pa.table({
            "doc_id": pc.cast(k.column("doc_id"), pa.int64()),
            "n_tokens": pc.cast(k.column("n_tokens"), pa.int64()),
            "n_dups": pa.array(np.ones(len(k), dtype=np.int64), pa.int64()),
        })

    def clustered(t: pa.Table) -> pa.Table:
        k = t.filter(pc.not_equal(t.column("cluster_id"), -1))
        return pa.table({
            "doc_id": pc.cast(k.column("doc_id"), pa.int64()),
            "n_tokens": pc.cast(k.column("n_tokens"), pa.int64()),
            "cluster_id": pc.cast(k.column("cluster_id"), pa.int64()),
        })

    winners = by_key((tagged.map_batches(clustered, batch_format="pyarrow"), "cluster_id"),
                     _cluster_winners, n_parts)
    return tagged.map_batches(singles, batch_format="pyarrow").union(winners)
