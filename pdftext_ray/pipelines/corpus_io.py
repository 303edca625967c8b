"""Corpus materialization: shard-parallel deterministic generation + oracle.

``generate_corpus_ds`` fans document generation out as a Ray Data pipeline
(each doc is a pure function of (seed, index) — see pdftext_ray/corpus.py), so
arbitrarily large corpora stream straight to partitioned Parquet without ever
materializing on one node.

``materialize_expected`` computes the golden span sequences with the
single-document oracle using plain pyarrow — no Ray involved — so the
pipeline-vs-oracle comparison crosses two independent execution paths.
"""

from __future__ import annotations

import os
from typing import Optional

import pyarrow as pa
import ray.data

from pdftext_ray.corpus import generate_batch, generate_document
from pdftext_ray.kernel.document import ExtractConfig, extract_document
from pdftext_ray.pipelines.goldens import materialize_golden
from pdftext_ray.stages import schemas


CORPUS_FORMAT_VERSION = 8  # bump when payload format / generator / oracle semantics change;
# cache paths derive their v{N} suffix from this (see __ray_entry__, bench.py)


def _rows_to_input_table(rows) -> pa.Table:
    # n_bytes is the ingest-time size column that picks each doc's
    # size_bucket, so the skew plans route by directory instead of
    # re-scanning the payload column (SURVEY.md §4 skew; at 100 TB you
    # bucket at ingest, not with a second full read).
    return pa.Table.from_arrays(
        [
            pa.array([r["doc_id"] for r in rows], pa.string()),
            pa.array([r["spans"] for r in rows], pa.list_(schemas.INPUT_SPAN)),
            pa.array(
                # UTF-8 BYTES, matching stages.extract.payload_sizes (char
                # counts would route multi-byte docs differently per path)
                [sum(len(s["text"].encode("utf-8")) for s in r["spans"]) for r in rows],
                pa.int64(),
            ),
        ],
        names=["doc_id", "spans", "n_bytes"],
    )


def generate_corpus_ds(n_docs: int, seed: int = 42, profile: str = "mixed") -> ray.data.Dataset:
    base = ray.data.range(n_docs)

    def gen(batch: pa.Table) -> pa.Table:
        ids = batch.column("id").to_pylist()
        return _rows_to_input_table(generate_batch(ids, seed, profile))

    return base.map_batches(gen, batch_format="pyarrow")


# docs above this payload size (UTF-8 bytes) land in the `large` ingest
# bucket; the skew-aware plans default their explode_threshold to this
# constant so routing is identical whether sizing happens at ingest or in
# flight
SIZE_BUCKET_THRESHOLD = 256 * 1024


def materialize_corpus(
    path: str, n_docs: int, seed: int = 42, profile: str = "mixed", overwrite: bool = False,
    rows_per_file: Optional[int] = None,
) -> str:
    """Write the corpus to ``path`` (idempotent: atomic rename, skip if done).

    The layout is hive-partitioned by ``size_bucket`` (small/large on
    ``n_bytes``): the skew-aware extraction plan reads each bucket's
    directory directly, so routing heavy documents costs zero extra scans
    (bucket at ingest — the 100 TB answer to skew)."""
    if os.path.isdir(path) and not overwrite:
        return path
    tmp = f"{path}.tmp.{os.getpid()}"

    def bucketize(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        bucket = pc.if_else(
            pc.greater(batch.column("n_bytes"), SIZE_BUCKET_THRESHOLD), "large", "small"
        )
        return batch.append_column("size_bucket", bucket)

    # many smallish files → the read stage fans out to every core (a read
    # with fewer file-tasks than CPUs starves the extract actor pool)
    if rows_per_file is None:
        rows_per_file = max(200, n_docs // 96)
    generate_corpus_ds(n_docs, seed, profile).map_batches(
        bucketize, batch_format="pyarrow"
    ).write_parquet(
        tmp, partition_cols=["size_bucket"],
        min_rows_per_file=rows_per_file, max_rows_per_file=rows_per_file,
    )
    if os.path.isdir(path):  # lost a race or overwrite: replace
        import shutil

        shutil.rmtree(path)
    try:
        os.rename(tmp, path)
    except OSError:
        # two writers raced between the rmtree and the rename: the other
        # writer's (identical, deterministic) corpus is already in place —
        # treat as success and discard our tmp dir (ADVICE r1)
        if not os.path.isdir(path):
            raise
        import shutil

        shutil.rmtree(tmp, ignore_errors=True)
    return path


def generate_corpus_table(n_docs: int, seed: int = 42, profile: str = "mixed") -> pa.Table:
    """Driver-side (no Ray) corpus build for tests / the oracle path."""
    return _rows_to_input_table([generate_document(i, seed, profile) for i in range(n_docs)])


def expected_flat_table(
    n_docs: int, seed: int = 42, profile: str = "mixed", cfg: Optional[ExtractConfig] = None
) -> pa.Table:
    """Golden flattened span sequences via the single-doc oracle (no Ray)."""
    cfg = cfg or ExtractConfig()
    doc_ids, orders, kinds, texts, refs = [], [], [], [], []
    for i in range(n_docs):
        doc = generate_document(i, seed, profile)
        payloads = [s["text"] for s in doc["spans"] if s["kind"] == "text"]
        res = extract_document(payloads, cfg)
        for s in res["spans"]:
            doc_ids.append(doc["doc_id"])
            orders.append(s["order"])
            kinds.append(s["kind"])
            texts.append(s["text"])
            refs.append(s["media_ref"])
    return pa.Table.from_arrays(
        [
            pa.array(doc_ids, pa.string()),
            pa.array(orders, pa.int32()),
            pa.array(kinds, pa.string()),
            pa.array(texts, pa.string()),
            pa.array(refs, pa.string()),
        ],
        schema=schemas.FLAT_SPAN_SCHEMA,
    )


def expected_plain_table(
    n_docs: int, seed: int = 42, profile: str = "mixed", cfg: Optional[ExtractConfig] = None
) -> pa.Table:
    """Golden plain-text output via the single-doc oracle (no Ray)."""
    from pdftext_ray.kernel.document import plain_text, process_document

    cfg = cfg or ExtractConfig()
    doc_ids, texts = [], []
    for i in range(n_docs):
        doc = generate_document(i, seed, profile)
        payloads = [s["text"] for s in doc["spans"] if s["kind"] == "text"]
        pages = process_document(payloads, cfg)
        doc_ids.append(doc["doc_id"])
        texts.append(plain_text(pages, sort=cfg.sort, hyphens=cfg.hyphens))
    return pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()), pa.array(texts, pa.string())],
        schema=schemas.PLAIN_TEXT_SCHEMA,
    )


def expected_paginated_table(
    n_docs: int, seed: int = 42, profile: str = "mixed", cfg: Optional[ExtractConfig] = None
) -> pa.Table:
    """Golden per-page plain text via the single-doc oracle (no Ray)."""
    from pdftext_ray.kernel.document import merge_text, process_document

    cfg = cfg or ExtractConfig()
    doc_ids, pages_o, texts = [], [], []
    for i in range(n_docs):
        doc = generate_document(i, seed, profile)
        payloads = [s["text"] for s in doc["spans"] if s["kind"] == "text"]
        for pg in process_document(payloads, cfg):
            doc_ids.append(doc["doc_id"])
            pages_o.append(pg["page"])
            texts.append(merge_text(pg, sort=cfg.sort, hyphens=cfg.hyphens).strip())
    return pa.Table.from_arrays(
        [pa.array(doc_ids, pa.string()), pa.array(pages_o, pa.int32()), pa.array(texts, pa.string())],
        names=["doc_id", "page", "text"],
    )


def materialize_expected_paginated(path: str, n_docs: int, seed: int = 42, profile: str = "mixed") -> str:
    return materialize_golden(path, lambda: expected_paginated_table(n_docs, seed, profile))


def materialize_expected(path: str, n_docs: int, seed: int = 42, profile: str = "mixed") -> str:
    """Write the golden flat table as one parquet file (idempotent/atomic)."""
    return materialize_golden(path, lambda: expected_flat_table(n_docs, seed, profile))


def materialize_expected_plain(path: str, n_docs: int, seed: int = 42, profile: str = "mixed") -> str:
    return materialize_golden(path, lambda: expected_plain_table(n_docs, seed, profile))
