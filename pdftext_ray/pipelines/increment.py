"""The daily-crawl increment loop, composed end to end.

A production corpus is not rebuilt — it is grown: each day's crawl is
deduplicated against PERSISTED artifacts of everything seen before, and
those artifacts are rolled forward. This module chains the four incremental
modalities (`ops/dedup.incremental_exact_dedup`, `incremental_minhash_dedup`,
`ops/cluster.incremental_connected_components` + `apply_incremental_cc`)
against an artifact directory and writes the updated artifacts atomically —
the composed-pipeline analog of the reference's keep-first contract
(`/root/reference/pdftext/pdf/chars.py:102-113`) extended across runs.

Artifact layout under ``artifact_dir`` (all parquet, each swapped in by
rename — see :func:`_write_atomic`):

* ``hashes/``  — (text_hash) of every distinct text ever kept.
* ``sigs/``    — (id, minhash) MinHash signatures of every doc ever seen.
* ``labels/``  — (doc_id, cluster_id) near-dup cluster labels (min-member
  ids, rep rows present — `connected_components_distributed`'s contract).

An empty/missing ``artifact_dir`` bootstraps from nothing: day 1 simply runs
against empty baselines (every op handles the empty side).

Scale shape: each op has one plan — the increment's keys are broadcast and
the baseline artifacts are SCANNED, never shuffled; all exchanges are
increment-sized. The three artifact rewrites stream (union of the old
table's scan with the new rows).
"""

from __future__ import annotations

import os
import shutil

import numpy as np
import pyarrow as pa
import ray.data


def _read_or_empty(path: str, schema: pa.Schema, columns=None) -> ray.data.Dataset:
    from pdftext_ray import storage

    if os.path.isdir(path) and any(f.endswith(".parquet") for f in os.listdir(path)):
        # rows-aware split (SURVEY §12): the artifact scans
        # are LIGHT vectorized probes, and Ray's default splitter turns a
        # small artifact into dozens of tiny blocks whose count then
        # multiplies every downstream shuffle's partition fan-out (measured
        # 14.1 s vs 1.8 s for the same 2.5k-sig verdict run at 66 vs 1
        # baseline blocks)
        return storage.read_table(path, columns=columns, rows_per_block=65536)
    return ray.data.from_arrow(schema.empty_table())


def _write_atomic(ds: ray.data.Dataset, out_dir: str) -> int:
    """Write ``ds`` as parquet to ``out_dir`` in place of its old contents;
    returns rows written. The swap is ``out_dir`` → ``out_dir.old``, tmp →
    ``out_dir``, then the old copy is deleted: a crash at any step leaves a
    complete copy that :func:`_recover` puts back."""
    tmp = out_dir + ".tmp"
    if os.path.isdir(tmp):
        shutil.rmtree(tmp)
    ds.write_parquet(tmp)
    os.makedirs(tmp, exist_ok=True)  # all-empty unions may write no files
    n = ray.data.read_parquet(tmp).count() if any(
        f.endswith(".parquet") for f in os.listdir(tmp)) else 0
    old = out_dir + ".old"
    if os.path.isdir(out_dir):
        os.rename(out_dir, old)
    os.rename(tmp, out_dir)
    shutil.rmtree(old, ignore_errors=True)
    return n


def _recover(out_dir: str) -> None:
    """Undo a :func:`_write_atomic` swap cut short by a crash: a lone
    ``out_dir.old`` is the last complete artifact and is renamed back;
    beside a complete ``out_dir`` it is stale and deleted."""
    old = out_dir + ".old"
    if not os.path.isdir(old):
        return
    if os.path.isdir(out_dir):
        shutil.rmtree(old)
    else:
        os.rename(old, out_dir)


def run_increment(
    new_docs: ray.data.Dataset,
    artifact_dir: str,
    threshold: float = 0.5,
    num_perm: int = 64,
    bands: int = 16,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> dict:
    """Process one crawl increment against (and into) ``artifact_dir``.

    Steps — baseline artifacts are never re-read as text, only as tables:

    1. exact:   novel = incremental_exact_dedup(new_docs, hashes);
                hashes ∪= novel text_hash rows.
    2. minhash: verdicts = incremental_minhash_dedup(new_docs, sigs);
                sigs ∪= signatures of ALL increment docs (they are part of
                tomorrow's baseline whether or not they were flagged).
    3. cluster: delta = incremental_connected_components(verdict pairs,
                labels); labels = apply_incremental_cc(labels, delta).

    Returns {"new_docs", "novel_hashes", "flagged", "assigned", "remapped",
    "hashes_rows", "sigs_rows", "labels_rows"} — the per-increment metrics a
    daily run logs. Ids must be globally unique and monotone across days
    (the incremental ops' shared contract). Increments are sequential by
    design: each artifact's swap survives a crash at any step (an
    interrupted swap is undone on entry), but the three artifacts are
    swapped one after another, and nothing guards against a CONCURRENT
    second increment — run one increment at a time per artifact_dir (the
    daily-loop shape)."""
    from pdftext_ray.ops import cluster, dedup

    id_type = new_docs.schema().base_schema.field(id_col).type
    hashes_dir = os.path.join(artifact_dir, "hashes")
    sigs_dir = os.path.join(artifact_dir, "sigs")
    labels_dir = os.path.join(artifact_dir, "labels")
    os.makedirs(artifact_dir, exist_ok=True)
    for d in (hashes_dir, sigs_dir, labels_dir):
        _recover(d)

    new_docs = new_docs.materialize()  # consumed by three stages
    n_new = new_docs.count()

    # -- 1. exact ----------------------------------------------------------
    baseline_hashes = _read_or_empty(
        hashes_dir, pa.schema([("text_hash", pa.string())]), columns=["text_hash"])
    novel = dedup.incremental_exact_dedup(
        new_docs, baseline_hashes, id_col=id_col, text_col=text_col
    ).materialize()
    novel_hash_rows = novel.select_columns(["text_hash"])
    hashes_rows = _write_atomic(
        baseline_hashes.union(novel_hash_rows), hashes_dir)

    # -- 2. minhash --------------------------------------------------------
    sig_schema = pa.schema([(id_col, id_type), ("minhash", pa.list_(pa.int64()))])
    baseline_sigs = _read_or_empty(sigs_dir, sig_schema).materialize()
    # signatures computed ONCE: shared by the verdict op (new_sigs
    # pass-through) and the artifact roll-forward
    new_sigs = dedup.minhash_signatures(
        new_docs, num_perm=num_perm, id_col=id_col, text_col=text_col
    ).materialize()
    verdicts = dedup.incremental_minhash_dedup(
        new_docs, baseline_sigs, num_perm=num_perm, bands=bands,
        threshold=threshold, id_col=id_col, text_col=text_col,
        new_sigs=new_sigs,
    ).materialize()
    sigs_rows = _write_atomic(baseline_sigs.union(new_sigs), sigs_dir)

    # -- 3. cluster stability ----------------------------------------------
    label_schema = pa.schema([("doc_id", id_type), ("cluster_id", id_type)])
    baseline_labels = _read_or_empty(labels_dir, label_schema)

    def as_pairs(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "doc_a": pc.cast(t.column(id_col), id_type),
            "doc_b": pc.cast(t.column("dup_of"), id_type),
        })

    kinds = None
    if verdicts.count():
        delta = cluster.incremental_connected_components(
            verdicts.map_batches(as_pairs, batch_format="pyarrow"),
            baseline_labels,
        ).materialize()
        updated_labels = cluster.apply_incremental_cc(baseline_labels, delta)
        labels_rows = _write_atomic(updated_labels, labels_dir)
        if delta.count():
            kinds = delta.select_columns(["kind"]).to_pandas()["kind"]
    elif not os.path.isdir(labels_dir):
        labels_rows = _write_atomic(
            ray.data.from_arrow(label_schema.empty_table()), labels_dir)
    else:
        # no new edges: the corpus-sized label table is NOT rewritten
        labels_rows = baseline_labels.count()
    return {
        "new_docs": n_new,
        "novel_hashes": novel.count(),
        "flagged": verdicts.count(),
        "assigned": int((kinds == "assign").sum()) if kinds is not None else 0,
        "remapped": int((kinds == "remap").sum()) if kinds is not None else 0,
        "hashes_rows": hashes_rows,
        "sigs_rows": sigs_rows,
        "labels_rows": labels_rows,
    }
