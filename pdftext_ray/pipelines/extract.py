"""End-to-end extraction pipelines (lazy Ray Data graphs; callers consume).

Plan shape (doc-parallel flagship):

    read_table (column-pruned) → map_batches(Extractor(mode)) → write /
    flatten — zero shuffles.

Skew handling (north rule), decided in this module only: docs past
``SIZE_BUCKET_THRESHOLD`` payload bytes take the page-exploded branch
(:func:`_exploded`: one row per page, one groupby(doc_id) shuffle to
reassemble), the rest the fused doc-parallel branch; branches union. Which
docs are heavy comes from the ingest layout's hive ``size_bucket`` dirs
(:func:`split_by_size`, zero extra scans) or, for un-bucketed input, from
the ``payload_sizes`` pre-pass in flight (:func:`_sized_branches`). At
10^12-doc scale this keeps one 5,000-page document from pinning a task while
the bulk of the corpus streams shuffle-free.
"""

from __future__ import annotations

from pathlib import PurePath
from typing import List, Optional, Tuple, Union

import ray.data

from pdftext_ray.kernel.document import ExtractConfig
from pdftext_ray.pipelines.corpus_io import SIZE_BUCKET_THRESHOLD
from pdftext_ray.stages import extract as X
from pdftext_ray.storage import input_files, read_table


# Rows per map batch: docs per fused Extractor call, pages per PageExtractor
# call; the kernel runs one pass per batch (kernel.document.process_batch).
# Set from a sweep on a 1-CPU host (CHANGES.md). Fused: in process, batches
# of 64 and 128 docs cost the same per doc and 256/512 more; each fused
# batch is one output block, so smaller batches write more parquet bytes
# (+8% at 64) and larger ones hold more memory (+5% peak RSS at 256), and
# 128 keeps both. Pages: 32 beat 16 and 128 in process and on extract_heavy.
DOC_BATCH_SIZE = 128
PAGE_BATCH_SIZE = 32


def _read_parallelism() -> int:
    """Read-task count: ~2 blocks per CPU. The streaming executor pays
    ~10-12 ms of serialized overhead PER TASK (measured: a 256-task pure-burn
    pipeline runs 1.54x its mp.Pool wall, 512 tasks 1.96x, 64 tasks 1.19x),
    so hundreds of small file-blocks cost seconds of pure scheduling; a few
    large blocks starve the pool. 2x CPUs keeps every core fed while keeping
    the per-task tax ~2% of a 2-3 s task."""
    try:
        import ray

        return 2 * int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 16


def read_documents(path: str, columns=("doc_id", "spans")) -> ray.data.Dataset:
    return read_table(path, columns=list(columns), override_num_blocks=_read_parallelism())


def extract(
    ds: ray.data.Dataset,
    mode: str = "spans",
    cfg: Optional[ExtractConfig] = None,
    batch_size: int = DOC_BATCH_SIZE,
    table_inputs=None,
) -> ray.data.Dataset:
    """Doc-parallel extraction of ``ds`` in output ``mode`` (no shuffle):
    "spans" (the flagship span sequence), "plain", "paginated", "dict" or
    "tables". ``table_inputs`` (tables mode) is a pa.Table of external
    detector regions — doc_id, page, tables list<bbox4>, img_size list2 —
    put in the object store once and looked up per task.

    Note on the pool form: we pass a constructed INSTANCE, which Ray runs as
    a task pool (the callable pickles per task — cheap: it holds only the
    mode and the config dataclass). The expensive warm state (imports,
    unicode tables, compiled regexes) lives at module level and persists in
    Ray's reused worker processes either way. The class+fn_constructor_args
    actor-pool form was measured too: it pins `concurrency` CPUs per stage,
    which starves multi-branch plans (skew union + groupby) on small nodes,
    for <5% throughput difference on this workload.

    Concurrency is left to Ray (round-2 measurement: an explicit
    `concurrency=cpus-2` cap ran 13.0–15.2 s at the 100k-doc bench vs
    11.5–15.7 s uncapped — the cap never wins, and a fixed absolute reserve
    makes the worker pool grow super-proportionally between cluster sizes,
    muddying scaling measurements).
    """
    if table_inputs is not None:
        table_inputs = ray.put(table_inputs)
    return ds.map_batches(
        X.Extractor(mode, cfg, table_inputs), batch_format="pyarrow", batch_size=batch_size
    )


def _exploded(
    ds: ray.data.Dataset, mode: str, cfg, page_batch_size: int = PAGE_BATCH_SIZE
) -> ray.data.Dataset:
    """The page-exploded branch: explode → per-page decode (PageExtractor)
    → groupby(doc_id).map_groups(assemble), the one shuffle, keyed doc_id.

    It does not split a doc's pages across tasks. Ray fuses explode →
    PageExtractor, and ``page_batch_size`` makes each fused task bundle at
    least that many input DOC rows, so all 20 heavy docs of the benchmark's
    heavy corpus (3 read blocks, 819 pages) run in ONE task and the shuffle
    reassembles pages that never left it. Both ways to split them measured
    no faster on a 1-CPU session (ROADMAP, "Page parallelism")."""
    pages = ds.map_batches(X.explode_pages, batch_format="pyarrow").map_batches(
        X.PageExtractor(cfg), batch_format="pyarrow", batch_size=page_batch_size
    )
    return pages.groupby("doc_id").map_groups(lambda g: X.assemble(g, mode, cfg), batch_format="pyarrow")


def extract_spans_exploded(
    ds: ray.data.Dataset,
    cfg: Optional[ExtractConfig] = None,
    page_batch_size: int = PAGE_BATCH_SIZE,
) -> ray.data.Dataset:
    """Page-exploded extraction of every doc in ``ds`` (see :func:`_exploded`)."""
    return _exploded(ds, "spans", cfg, page_batch_size)


def _union(branches: List[ray.data.Dataset]) -> ray.data.Dataset:
    return branches[0].union(*branches[1:]) if len(branches) > 1 else branches[0]


def _sized_branches(ds: ray.data.Dataset, mode: str, cfg, threshold: int) -> List[ray.data.Dataset]:
    """In-flight sizing of un-bucketed docs: the ``payload_sizes`` pre-pass,
    then docs past ``threshold`` payload bytes take the exploded branch.
    The shared lineage (read + pre-pass) executes once per branch."""
    sized = ds.map_batches(X.payload_sizes, batch_format="pyarrow")
    light = sized.filter(expr=f"payload_bytes <= {threshold}").drop_columns(["payload_bytes"])
    heavy = sized.filter(expr=f"payload_bytes > {threshold}").drop_columns(["payload_bytes"])
    return [extract(light, mode, cfg), _exploded(heavy, mode, cfg)]


def extract_spans_skew_aware(
    ds: ray.data.Dataset,
    cfg: Optional[ExtractConfig] = None,
    explode_threshold: int = SIZE_BUCKET_THRESHOLD,
) -> ray.data.Dataset:
    """Size-split plan over a Dataset: small docs fused, docs past
    ``explode_threshold`` page-exploded, union. Prefer
    :func:`extract_corpus_skew_aware` over an ingest-bucketed corpus, which
    reads each branch's files exactly once."""
    return _union(_sized_branches(ds, "spans", cfg, explode_threshold))


def split_by_size(files: List[str]) -> Tuple[List[str], List[str], List[str]]:
    """The skew route of each parquet file: (fused, exploded, unsized).

    The ingest layout (``corpus_io.materialize_corpus``) buckets docs by
    payload size into hive ``size_bucket=small|large`` dirs. Files of the
    ``large`` bucket take the page-exploded branch, files of any other
    bucket the fused branch; un-bucketed files are sized in flight
    (:func:`_sized_branches`). Callers route through this split, never by
    testing bucket paths themselves."""
    fused, exploded, unsized = [], [], []
    for f in files:
        dirs = PurePath(f).parts[:-1]
        if "size_bucket=large" in dirs:
            exploded.append(f)
        elif any(d.startswith("size_bucket=") for d in dirs):
            fused.append(f)
        else:
            unsized.append(f)
    return fused, exploded, unsized


def _heavy_bucket_blocks(files: List[str], nblocks: int) -> int:
    """Block count for the heavy-doc files, sized from parquet FOOTERS
    (row counts are free). Ray's default splitting gave the 8-row heavy
    bucket 64 blocks at bench scale, and the reassembly groupby inherits
    that as 64 sort partitions — ~13 s of pure shuffle fixed overhead for
    96 page rows (ds.stats audit, round 3). ~8 heavy docs (≈100 exploded
    pages) per block keeps the shuffle proportional to the data while
    4×read-parallelism caps it for genuinely large heavy buckets. The count
    does not set page parallelism: the fused explode → PageExtractor task
    bundles at least ``page_batch_size`` doc rows, so a bucket of up to 32
    heavy docs decodes in one task however many blocks it is read as."""
    import math

    import pyarrow.parquet as _pq

    try:
        rows = sum(_pq.read_metadata(f).num_rows for f in files)
    except OSError:  # unreadable footer only — anything else should surface
        return nblocks
    return max(2, min(math.ceil(rows / 8), 4 * nblocks))


def _skew_plan(path: Union[str, List[str]], mode: str, cfg) -> ray.data.Dataset:
    """One plan over a corpus dir or file list: each file goes where
    :func:`split_by_size` routes it, each branch reads only its own files,
    and the branches union (no union when only one runs)."""
    files = input_files(path) if isinstance(path, str) else path
    fused, exploded, unsized = split_by_size(files)
    nblocks = _read_parallelism()

    def read(fs, n):
        return ray.data.read_parquet(fs, columns=["doc_id", "spans"], override_num_blocks=n)

    branches = []
    if fused:
        branches.append(extract(read(fused, nblocks), mode, cfg))
    if unsized:
        branches += _sized_branches(read(unsized, nblocks), mode, cfg, SIZE_BUCKET_THRESHOLD)
    if exploded:
        branches.append(_exploded(read(exploded, _heavy_bucket_blocks(exploded, nblocks)), mode, cfg))
    return _union(branches)


def extract_corpus_skew_aware(
    path: Union[str, List[str]], cfg: Optional[ExtractConfig] = None
) -> ray.data.Dataset:
    """Span sequences of an ingested corpus (a dir or a list of its parquet
    files): heavy docs page-exploded, the bulk fused doc-parallel. Bucket at
    ingest, prune at the read — the 100 TB-correct layout (SURVEY.md §4 skew)."""
    return _skew_plan(path, "spans", cfg)


def flat_spans(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Span-sequence rows → one row per span (driver-comparable shape)."""
    return ds.map_batches(X.flatten_spans, batch_format="pyarrow")


def extract_plain_text_corpus_skew_aware(
    path: Union[str, List[str]], cfg: Optional[ExtractConfig] = None
) -> ray.data.Dataset:
    """Plain text of an ingested corpus, routed as
    :func:`extract_corpus_skew_aware`: the fused map measures ~1.7 ms/doc
    single-core, but monster documents straggle whole batches (measured 25 s
    vs 16 s for the equivalent spans plans at 100k docs/32 cpus). The
    exploded branch resolves links doc-wide after the shuffle, then merges."""
    return _skew_plan(path, "plain", cfg)
