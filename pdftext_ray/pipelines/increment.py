"""The daily-crawl increment loop, composed end to end.

A production corpus is not rebuilt — it is grown: each day's crawl is
deduplicated against PERSISTED artifacts of everything seen before, and
those artifacts are rolled forward. This module chains the four incremental
modalities (`ops/dedup.incremental_exact_dedup`, `incremental_minhash_dedup`,
`ops/cluster.incremental_connected_components` + `apply_incremental_cc`)
against an artifact directory and writes the updated artifacts atomically —
the composed-pipeline analog of the reference's keep-first contract
(`/root/reference/pdftext/pdf/chars.py:102-113`) extended across runs.

Artifact layout under ``artifact_dir`` (all parquet; one
:func:`pdftext_ray.storage.commit` per day publishes them together):

* ``hashes/``  — (text_hash) of every distinct text ever kept.
* ``sigs/``    — (id, minhash) MinHash signatures of every doc ever seen.
* ``labels/``  — (doc_id, cluster_id) near-dup cluster labels (min-member
  ids, rep rows present — `connected_components_distributed`'s contract).

An empty/missing ``artifact_dir`` bootstraps from nothing: day 1 simply runs
against empty baselines (every op handles the empty side).

Scale shape: each op has one plan — the increment's keys are broadcast,
the baseline artifacts are SCANNED, and the increment-sized rest of the op
runs in one task (``ops/probe.in_one_task``). A day runs no keyed exchange:
its Ray Data executions are the increment's hash and signature passes, one
scan per baseline artifact and the three artifact writes, so the fixed cost
of a day no longer grows with the number of exchanges. The artifact rewrites
stream (union of the old table's scan with the new rows) into the day's
commit, which either publishes all of them or none: a day that raises has
not committed, and rerunning it is always correct.
"""

from __future__ import annotations

import os

import pyarrow as pa
import ray.data

from pdftext_ray import storage


def _read_or_empty(path: str, schema: pa.Schema, columns=None) -> ray.data.Dataset:
    if storage.parquet_files(path):
        # rows-aware split (SURVEY §12): the artifact scans
        # are LIGHT vectorized probes, and Ray's default splitter turns a
        # small artifact into dozens of tiny blocks whose count then
        # multiplies every downstream shuffle's partition fan-out (measured
        # 14.1 s vs 1.8 s for the same 2.5k-sig verdict run at 66 vs 1
        # baseline blocks)
        return storage.read_table(path, columns=columns, rows_per_block=65536)
    return ray.data.from_arrow(schema.empty_table())


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
    (the incremental ops' shared contract). The three artifacts are
    published by ONE commit (:func:`pdftext_ray.storage.commit`), and an
    interrupted commit is finished or undone on entry, so this raises only
    when the day did not commit: retrying after an exception is always
    correct. Nothing guards against a CONCURRENT second increment — run one
    increment at a time per artifact_dir (the daily-loop shape)."""
    from pdftext_ray.ops import cluster, dedup, probe

    hashes_dir = os.path.join(artifact_dir, "hashes")
    sigs_dir = os.path.join(artifact_dir, "sigs")
    labels_dir = os.path.join(artifact_dir, "labels")
    storage.recover(artifact_dir)

    new_docs = new_docs.materialize()  # consumed by three stages
    id_type = new_docs.schema().base_schema.field(id_col).type

    # -- 1. exact ----------------------------------------------------------
    baseline_hashes = _read_or_empty(
        hashes_dir, pa.schema([("text_hash", pa.string())]), columns=["text_hash"])
    novel = dedup.incremental_exact_dedup(
        new_docs, baseline_hashes, id_col=id_col, text_col=text_col
    ).materialize()
    outputs = {"hashes": baseline_hashes.union(novel.select_columns(["text_hash"]))}

    # -- 2. minhash --------------------------------------------------------
    sig_schema = pa.schema([(id_col, id_type), ("minhash", pa.list_(pa.int64()))])
    baseline_sigs = _read_or_empty(sigs_dir, sig_schema)
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
    outputs["sigs"] = baseline_sigs.union(new_sigs)

    # -- 3. cluster stability ----------------------------------------------
    label_schema = pa.schema([("doc_id", id_type), ("cluster_id", id_type)])
    baseline_labels = _read_or_empty(labels_dir, label_schema)

    # every count below is block metadata of a materialized dataset or
    # a collected table: no count runs an execution of its own
    kinds = []
    if verdicts.count():
        delta = cluster.incremental_connected_components(
            verdicts, baseline_labels, a_col=id_col, b_col="dup_of").materialize()
        outputs["labels"] = cluster.apply_incremental_cc(baseline_labels, delta)
        kinds = probe.collect(delta, delta.schema().base_schema).column("kind").to_pylist()
    elif not storage.parquet_files(labels_dir):
        outputs["labels"] = ray.data.from_arrow(label_schema.empty_table())
    rows = storage.commit(artifact_dir, outputs)
    if "labels" not in rows:  # no new edges: the label table is NOT rewritten
        rows["labels"] = storage.parquet_row_count(labels_dir)
    return {
        "new_docs": new_docs.count(),
        "novel_hashes": novel.count(),
        "flagged": verdicts.count(),
        "assigned": kinds.count("assign"),
        "remapped": kinds.count("remap"),
        "hashes_rows": rows["hashes"],
        "sigs_rows": rows["sigs"],
        "labels_rows": rows["labels"],
    }
