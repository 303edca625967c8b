"""Checkpointed, resumable extraction runs (north rule: per-partition lineage).

Partition unit = a deterministic chunk of the input's parquet fragment files
(one output directory per input shard, per the resumable-output pattern).
Each partition is processed as its own Ray Data pipeline, published by
``storage.commit`` and then recorded in a ``_manifest/part-{i}.json`` with
the input fingerprint, row count and basic metrics. A killed run restarted with
the same arguments skips every partition whose manifest is present and whose
input fingerprint still matches — no re-extraction of completed work.

The reference has no checkpoint/resume at all (SURVEY.md §4); this is the
engine-side addition the 100 TB target requires.
"""

from __future__ import annotations

import json
import os
import time
from typing import List, Optional

import pyarrow as pa
import ray.data

from pdftext_ray import storage
from pdftext_ray.kernel.document import ExtractConfig
from pdftext_ray.pipelines import extract as P


def _fingerprint(files: List[str], root: str) -> dict:
    # key by path relative to the input root: hive layouts repeat basenames
    # across partition dirs, and basename keys would collide/mask changes.
    # size + mtime_ns: a rewrite that keeps the byte count equal must not be
    # silently skipped on resume as already-done (ADVICE r1)
    return {
        os.path.relpath(f, root): [os.path.getsize(f), os.stat(f).st_mtime_ns]
        for f in files
    }


def _chunks(files: List[str], num_partitions: int) -> List[List[str]]:
    """Deterministic partition chunks: the files that the size split
    (:func:`pdftext_ray.pipelines.extract.split_by_size`) sends to the
    page-exploded branch form a chunk of their own; the rest are dealt
    round-robin over the other partitions."""
    fused, large, unsized = P.split_by_size(files)
    small = sorted(fused + unsized)
    n = min(max(1, num_partitions - (1 if large else 0)), max(len(small), 1))
    return [small[i::n] for i in range(n) if small] + ([large] if large else [])


def _error_rows(part_dir: str) -> int:
    """Rows with a non-empty ``error`` (0 when the output has no such
    column), counted by a local read of that one column."""
    import pyarrow.dataset as pads

    part = pads.dataset(part_dir, format="parquet")
    if "error" not in part.schema.names:
        return 0
    return part.count_rows(filter=pads.field("error") != "")


def run_partitioned_stage(
    input_path: str,
    stage_dir: str,
    stage_fn,
    num_partitions: int = 8,
) -> dict:
    """Resumable partitioned map stage: split the input's parquet files into
    deterministic chunks (:func:`_chunks`), run ``stage_fn(files) ->
    Dataset`` per chunk and publish each result under ``stage_dir/part-i``
    by :func:`pdftext_ray.storage.commit`, then record a fingerprinted
    ``_manifest/part-i.json`` (rows, errors, wall time, throughput, input
    files). A restarted run skips every partition whose manifest matches
    its input fingerprint. Returns {"partitions", "processed", "skipped",
    "rows", "part_files"} where part_files flat-lists the parquet files of
    every part (Ray's read_parquet takes files, not a list of directories;
    a part with no rows holds one typed empty file)."""
    files = storage.input_files(input_path)
    chunks = _chunks(files, num_partitions)
    manifest_dir = os.path.join(stage_dir, "_manifest")
    os.makedirs(manifest_dir, exist_ok=True)
    storage.recover(stage_dir)

    processed = skipped = total_rows = 0
    part_files: List[str] = []
    for i, chunk in enumerate(chunks):
        name = f"part-{i}"
        mpath = os.path.join(manifest_dir, f"{name}.json")
        part_dir = os.path.join(stage_dir, name)
        fp = _fingerprint(chunk, input_path)
        manifest = {}
        if os.path.exists(mpath):
            with open(mpath) as f:
                manifest = json.load(f)
        if manifest.get("status") == "done" and manifest.get("fingerprint") == fp:
            skipped += 1
        else:
            _t0 = time.monotonic()
            rows = storage.commit(stage_dir, {name: stage_fn(chunk)})[name]
            wall_s = round(time.monotonic() - _t0, 3)
            manifest = {
                "status": "done",
                "partition": i,
                "fingerprint": fp,
                "rows": rows,
                "errors": _error_rows(part_dir),
                "wall_s": wall_s,
                "docs_per_sec": round(rows / wall_s, 1) if wall_s > 0 else None,
                "input_files": [os.path.relpath(c, input_path) for c in chunk],
            }
            with open(mpath + ".tmp", "w") as f:
                json.dump(manifest, f)
            os.replace(mpath + ".tmp", mpath)
            processed += 1
        total_rows += manifest.get("rows", 0)
        part_files.extend(storage.parquet_files(part_dir))

    return {
        "partitions": len(chunks),
        "processed": processed,
        "skipped": skipped,
        "rows": total_rows,
        "part_files": part_files,
    }


def run_checkpointed(
    input_path: str,
    output_dir: str,
    cfg: Optional[ExtractConfig] = None,
    num_partitions: int = 8,
) -> dict:
    """Run (or resume) a full extraction over ``input_path`` through
    :func:`run_partitioned_stage`, each partition's files through
    :func:`pdftext_ray.pipelines.extract.extract_corpus_skew_aware`.

    Skew handling composes with checkpointing through the size split: the
    files it routes to the page-exploded branch (the ingest layout's large
    bucket) form their own partition; each file is read once, and
    un-bucketed files are sized in flight (a second pass over their chunk).
    Returns {"partitions": n, "processed": k, "skipped": m, "rows": total}.
    """
    stats = run_partitioned_stage(
        input_path, output_dir, lambda files: P.extract_corpus_skew_aware(files, cfg), num_partitions
    )
    del stats["part_files"]
    return stats


def run_clean_checkpointed(
    input_path: str,
    output_dir: str,
    num_partitions: int = 8,
    min_tokens: int = 20,
    min_alpha_ratio: float = 0.5,
    min_stop_ratio: float = 0.02,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> dict:
    """Resumable clean_corpus (VERDICT r3 item 6: at 100 TB a 20-hour dedup
    that cannot resume is operationally broken).

    Phase 1 — the full-text scan (gate + content hash), the expensive part —
    is checkpointed per input chunk via run_partitioned_stage: a killed run
    redoes only unfinished chunks. Phase 2 — the global min-id dedup over
    survivor STATS (never text; orders of magnitude smaller) — re-runs every
    invocation and lands atomically under ``output_dir/final``. Correctness:
    gating is row-local and the dedup reduce is associative, so the final
    table EQUALS clean_corpus(full input) regardless of partitioning
    (tested). Returns phase-1 stats + {"final_rows": n, "final_dir": path}.
    """
    import functools

    from pdftext_ray.ops.relational import hash_grouped_agg
    from pdftext_ray.pipelines.clean import quality_gate_batch

    gate = functools.partial(
        quality_gate_batch,
        min_tokens=min_tokens,
        min_alpha_ratio=min_alpha_ratio,
        min_stop_ratio=min_stop_ratio,
        id_col=id_col,
        text_col=text_col,
    )
    stats = run_partitioned_stage(
        input_path,
        os.path.join(output_dir, "gated"),
        lambda files: ray.data.read_parquet(files, columns=[id_col, text_col])
        .map_batches(gate, batch_format="pyarrow"),
        num_partitions=num_partitions,
    )
    if not stats["rows"]:
        # every doc gated out: a grouped agg over no rows runs no group and
        # loses every column, so the typed empty final is built here
        final = ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "n_tokens": pa.array([], pa.int64()),
            "alpha_ratio": pa.array([], pa.float64()),
            "stop_ratio": pa.array([], pa.float64()),
        }))
    else:
        final = hash_grouped_agg(
            ray.data.read_parquet(stats["part_files"]),
            "text_hash",
            {
                id_col: (id_col, "min"),
                "n_tokens": ("n_tokens", "min"),
                "alpha_ratio": ("alpha_ratio", "min"),
                "stop_ratio": ("stop_ratio", "min"),
            },
        ).drop_columns(["text_hash"])
    rows = storage.commit(output_dir, {"final": final})["final"]
    return {**stats, "final_rows": rows, "final_dir": os.path.join(output_dir, "final")}


def run_mixture_checkpointed(
    input_path: str,
    output_dir: str,
    num_partitions: int = 8,
    budget: int = 512,
    alpha: float = 0.5,
    min_tokens: int = 20,
    min_alpha_ratio: float = 0.5,
    min_stop_ratio: float = 0.02,
    lang_col: str = "lang",
    id_col: str = "doc_id",
    text_col: str = "text",
    seed: int = 17,
) -> dict:
    """Resumable training_mixture: phase 1 (gate + hash, checkpointed per
    chunk) feeds the identical global dedup→rebalance→pack phase
    (mixture_from_gated) every run; output lands atomically under
    ``output_dir/final`` and EQUALS training_mixture(full input)."""
    import functools

    from pdftext_ray.pipelines.clean import quality_gate_batch
    from pdftext_ray.pipelines.mixture import mixture_from_gated

    gate = functools.partial(
        quality_gate_batch,
        min_tokens=min_tokens,
        min_alpha_ratio=min_alpha_ratio,
        min_stop_ratio=min_stop_ratio,
        id_col=id_col,
        text_col=text_col,
        keep_cols=(lang_col,),
    )
    stats = run_partitioned_stage(
        input_path,
        os.path.join(output_dir, "gated"),
        lambda files: ray.data.read_parquet(files, columns=[id_col, lang_col, text_col])
        .map_batches(gate, batch_format="pyarrow"),
        num_partitions=num_partitions,
    )
    if not stats["rows"]:  # every doc gated out (see run_clean_checkpointed)
        final = ray.data.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            lang_col: pa.array([], pa.string()),
            "n_tokens": pa.array([], pa.int64()),
            "start_offset": pa.array([], pa.int64()),
            "seq_id": pa.array([], pa.int64()),
            "seq_pos": pa.array([], pa.int64()),
            "n_seqs": pa.array([], pa.int64()),
        }))
    else:
        final = mixture_from_gated(
            ray.data.read_parquet(stats["part_files"]), budget=budget, alpha=alpha,
            lang_col=lang_col, id_col=id_col, seed=seed,
        )
    rows = storage.commit(output_dir, {"final": final})["final"]
    return {**stats, "final_rows": rows, "final_dir": os.path.join(output_dir, "final")}
