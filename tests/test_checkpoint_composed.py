"""Resumable composed pipelines (VERDICT r3 item 6): run1-interrupt /
run2-skip over clean_corpus and training_mixture, plus equality with the
direct (un-checkpointed) pipelines — partitioning must not change a value."""

import json
import os

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray.data

from pdftext_ray.pipelines import checkpoint
from pdftext_ray.pipelines.clean import clean_corpus
from pdftext_ray.pipelines.mixture import training_mixture

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def docs_corpus(tmp_path):
    """The sf0.001 documents table split into 4 parquet files."""
    t = pq.read_table(os.path.join(SF, "documents.parquet")).replace_schema_metadata(None)
    d = tmp_path / "docs_in"
    d.mkdir()
    n = len(t)
    step = (n + 3) // 4
    for i in range(4):
        pq.write_table(t.slice(i * step, step), str(d / f"docs-{i}.parquet"))
    return str(d)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns)).reset_index(drop=True)


def test_partitioned_stage_interrupt_then_resume(docs_corpus, tmp_path):
    """A run killed mid-way (simulated: stage_fn raises on the 3rd chunk)
    must leave completed partitions durable; the restarted run redoes ONLY
    the unfinished ones."""
    stage_dir = str(tmp_path / "stage")
    calls = {"n": 0}

    def flaky(files):
        calls["n"] += 1
        if calls["n"] >= 3:
            raise RuntimeError("simulated crash mid-run")
        return ray.data.read_parquet(files, columns=["doc_id", "n_chars"])

    with pytest.raises(RuntimeError, match="simulated crash"):
        checkpoint.run_partitioned_stage(docs_corpus, stage_dir, flaky, num_partitions=4)
    done = sorted(os.listdir(os.path.join(stage_dir, "_manifest")))
    assert len(done) == 2  # two durable manifests before the crash

    r2 = checkpoint.run_partitioned_stage(
        docs_corpus, stage_dir,
        lambda files: ray.data.read_parquet(files, columns=["doc_id", "n_chars"]),
        num_partitions=4,
    )
    assert r2["skipped"] == 2 and r2["processed"] == 2
    got = ray.data.read_parquet(r2["part_files"]).to_pandas()
    want = ray.data.read_parquet(docs_corpus, columns=["doc_id", "n_chars"]).to_pandas()
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_partitioned_stage_commit_crash_then_resume(docs_corpus, tmp_path, monkeypatch):
    """A crash at a partition's commit point, after its new part was renamed
    in beside the old one, is undone on resume: every input doc is read
    back exactly once and no commit leftovers remain."""
    out = str(tmp_path / "stage")

    def stage(files):
        return ray.data.read_parquet(files, columns=["doc_id", "n_chars"])

    checkpoint.run_partitioned_stage(docs_corpus, out, stage, num_partitions=4)
    for i in (2, 3):  # partitions 2 and 3 must run again
        os.remove(os.path.join(out, "_manifest", f"part-{i}.json"))

    real_replace = os.replace

    def crash_at_commit_point(src, dst):
        if os.path.basename(dst) == "_committed":
            raise OSError("simulated crash at the commit point")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", crash_at_commit_point)
    with pytest.raises(OSError, match="simulated crash"):
        checkpoint.run_partitioned_stage(docs_corpus, out, stage, num_partitions=4)
    monkeypatch.undo()
    assert {"part-2", "part-2.old"} <= set(os.listdir(out))

    r = checkpoint.run_partitioned_stage(docs_corpus, out, stage, num_partitions=4)
    assert r["processed"] == 2 and r["skipped"] == 2
    assert sorted(os.listdir(out)) == ["_manifest", "part-0", "part-1", "part-2", "part-3"]
    got = ray.data.read_parquet(out).to_pandas()
    want = ray.data.read_parquet(docs_corpus, columns=["doc_id", "n_chars"]).to_pandas()
    assert got["doc_id"].is_unique
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_clean_checkpointed_resume_and_equality(docs_corpus, tmp_path):
    out = str(tmp_path / "clean_out")
    r1 = checkpoint.run_clean_checkpointed(docs_corpus, out, num_partitions=4)
    assert r1["processed"] == 4 and r1["skipped"] == 0
    r2 = checkpoint.run_clean_checkpointed(docs_corpus, out, num_partitions=4)
    assert r2["processed"] == 0 and r2["skipped"] == 4
    assert r2["final_rows"] == r1["final_rows"] > 0

    # final output EQUALS the direct un-checkpointed pipeline: gating is
    # row-local, the dedup reduce associative — partitioning can't change it
    got = ray.data.read_parquet(r2["final_dir"]).to_pandas()
    want = clean_corpus(ray.data.read_parquet(docs_corpus)).to_pandas()
    pd.testing.assert_frame_equal(
        _sorted(got)[sorted(want.columns)], _sorted(want)[sorted(want.columns)]
    )

    # a deleted manifest re-runs exactly that partition
    os.remove(os.path.join(out, "gated", "_manifest", "part-1.json"))
    r3 = checkpoint.run_clean_checkpointed(docs_corpus, out, num_partitions=4)
    assert r3["processed"] == 1 and r3["skipped"] == 3
    assert r3["final_rows"] == r1["final_rows"]

    # a tampered fingerprint re-runs too (no silent skip)
    mpath = os.path.join(out, "gated", "_manifest", "part-2.json")
    with open(mpath) as f:
        m = json.load(f)
    next(iter(m["fingerprint"].values()))[0] += 1
    with open(mpath, "w") as f:
        json.dump(m, f)
    r4 = checkpoint.run_clean_checkpointed(docs_corpus, out, num_partitions=4)
    assert r4["processed"] == 1 and r4["skipped"] == 3


def test_mixture_checkpointed_equality(docs_corpus, tmp_path):
    out = str(tmp_path / "mix_out")
    r1 = checkpoint.run_mixture_checkpointed(docs_corpus, out, num_partitions=3)
    assert r1["processed"] == 3
    got = ray.data.read_parquet(r1["final_dir"]).to_pandas()
    want = training_mixture(ray.data.read_parquet(docs_corpus)).to_pandas()
    assert len(got) == len(want) > 0
    pd.testing.assert_frame_equal(
        _sorted(got)[sorted(want.columns)], _sorted(want)[sorted(want.columns)]
    )
    r2 = checkpoint.run_mixture_checkpointed(docs_corpus, out, num_partitions=3)
    assert r2["processed"] == 0 and r2["skipped"] == 3


def test_clean_checkpointed_all_gated_out(tmp_path):
    """Every doc failing the gates still produces a typed empty final."""
    d = tmp_path / "tiny_in"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": [1, 2], "text": ["x", "y"]}),
        str(d / "docs-0.parquet"),
    )
    out = str(tmp_path / "clean_out")
    r = checkpoint.run_clean_checkpointed(str(d), out, num_partitions=2)
    assert r["final_rows"] == 0
    back = ray.data.read_parquet(r["final_dir"])
    assert set(back.schema().names) == {"doc_id", "n_tokens", "alpha_ratio", "stop_ratio"}


def test_mixture_checkpointed_all_gated_out(tmp_path):
    """The mixture twin: an all-gated-out run still lands a typed empty final."""
    d = tmp_path / "tiny_in"
    d.mkdir()
    pq.write_table(
        pa.table({"doc_id": [1, 2], "lang": ["en", "de"], "text": ["x", "y"]}),
        str(d / "docs-0.parquet"),
    )
    out = str(tmp_path / "mix_out")
    r = checkpoint.run_mixture_checkpointed(str(d), out, num_partitions=2)
    assert r["final_rows"] == 0
    back = ray.data.read_parquet(r["final_dir"])
    assert set(back.schema().names) == {
        "doc_id", "lang", "n_tokens", "start_offset", "seq_id", "seq_pos", "n_seqs"}
