"""End-to-end daily-increment pipeline: three rolling days against persisted
artifacts must equal the trivially-computed from-scratch state (hash set,
signature census, union-find clusters over all verdict edges)."""

import hashlib
import os

import pyarrow as pa
import pytest
import ray

from pdftext_ray.pipelines import increment


def _docs(rows):
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array([i for i, _ in rows], pa.int64()),
        "text": pa.array([t for _, t in rows], pa.string()),
    }))


def _union_find(edges):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in edges:
        parent.setdefault(a, a)
        parent.setdefault(b, b)
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {n: find(n) for n in parent}


def test_three_rolling_days(tmp_path):
    art = str(tmp_path / "artifacts")
    base = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the woods where a stream flows past tall trees")
    other = "completely unrelated text about ray data pipelines and arrow"
    days = [
        [(0, base), (1, other)],                      # day 1: two novel docs
        [(10, base), (11, "fresh doc about parquet footers and row groups")],
        [(20, base), (21, other), (22, base)],        # day 3: copies of both
    ]

    all_rows, all_edges, metrics = [], [], []
    for day in days:
        m = increment.run_increment(_docs(day), art, threshold=0.5)
        metrics.append(m)
        all_rows += day
        # accumulate this day's verdict edges from the persisted state delta:
        # re-derive them as (new id -> dup_of) from the pipeline's own flagged
        # count is opaque, so recompute expected flags locally instead below.

    # hashes artifact == distinct md5 of every text ever seen
    got_hashes = set(
        ray.data.read_parquet(f"{art}/hashes").to_pandas()["text_hash"])
    want_hashes = {hashlib.md5(t.encode()).hexdigest() for _, t in all_rows}
    assert got_hashes == want_hashes

    # sigs artifact: one signature per doc ever seen
    sigs = ray.data.read_parquet(f"{art}/sigs").to_pandas()
    assert sorted(sigs["doc_id"]) == sorted(i for i, _ in all_rows)

    # labels: exact copies across days MUST share min-member clusters
    labels = ray.data.read_parquet(f"{art}/labels").to_pandas()
    lab = dict(zip(labels["doc_id"], labels["cluster_id"]))
    assert lab[10] == 0 and lab[20] == 0 and lab[22] == 0 and lab[0] == 0
    assert lab[21] == 1 and lab[1] == 1
    assert 11 not in lab  # novel singleton never enters the label table

    # per-day metrics: day-1 all novel; day-3 copies suppressed
    assert metrics[0]["new_docs"] == 2 and metrics[0]["novel_hashes"] == 2
    assert metrics[0]["flagged"] == 0
    assert metrics[2]["novel_hashes"] == 0 and metrics[2]["flagged"] == 3
    # 20/22 join cluster 0; 21 pairs with day-1 SINGLETON 1, so BOTH get
    # assign rows (a baseline singleton first enters the label table the
    # day something pairs with it)
    assert metrics[2]["assigned"] == 4 and metrics[2]["remapped"] == 0

    # rolling result == one-shot run over the concatenated corpus
    art2 = str(tmp_path / "oneshot")
    increment.run_increment(_docs(all_rows), art2, threshold=0.5)
    one = ray.data.read_parquet(f"{art2}/labels").to_pandas()
    assert dict(zip(one["doc_id"], one["cluster_id"])) == lab
    assert set(ray.data.read_parquet(f"{art2}/hashes").to_pandas()["text_hash"]) == want_hashes


def test_bootstrap_empty_artifacts(tmp_path):
    art = str(tmp_path / "a")
    m = increment.run_increment(_docs([(5, "only doc")]), art, threshold=0.5)
    assert m["new_docs"] == 1 and m["novel_hashes"] == 1 and m["flagged"] == 0
    assert m["labels_rows"] == 0 and m["sigs_rows"] == 1 and m["hashes_rows"] == 1


def test_empty_increment_is_noop(tmp_path):
    art = str(tmp_path / "a")
    increment.run_increment(_docs([(1, "seed doc")]), art, threshold=0.5)
    before = ray.data.read_parquet(f"{art}/hashes").to_pandas()
    m = increment.run_increment(_docs([]), art, threshold=0.5)
    assert m["new_docs"] == 0 and m["flagged"] == 0
    after = ray.data.read_parquet(f"{art}/hashes").to_pandas()
    assert before.equals(after)


def test_string_ids_roll_forward(tmp_path):
    # the pipeline is id-type generic end to end (string doc ids through
    # hashing, signatures, verdicts, labels); "earlier" = lexicographic min
    art = str(tmp_path / "a")
    t = "some shared body of text repeated across crawl days verbatim"

    def sdocs(rows):
        return ray.data.from_arrow(pa.table({
            "doc_id": pa.array([i for i, _ in rows], pa.string()),
            "text": pa.array([s for _, s in rows], pa.string()),
        }))

    m1 = increment.run_increment(sdocs([("d01", t)]), art, threshold=0.5)
    m2 = increment.run_increment(sdocs([("d02", t), ("d03", "novel one")]), art, threshold=0.5)
    assert m1["novel_hashes"] == 1 and m2["novel_hashes"] == 1
    assert m2["flagged"] == 1 and m2["assigned"] == 2  # d01 first-entry + d02
    labels = ray.data.read_parquet(f"{art}/labels").to_pandas()
    assert dict(zip(labels["doc_id"], labels["cluster_id"])) == {"d01": "d01", "d02": "d01"}


def _labels(art):
    df = ray.data.read_parquet(f"{art}/labels").to_pandas()
    return dict(zip(df["doc_id"], df["cluster_id"]))


def test_crash_mid_swap_recovers(tmp_path, monkeypatch):
    # a crash between the two renames of an artifact swap leaves only
    # hashes.old; the next run must put it back and then give exactly the
    # labels of an uninterrupted run
    body = ("the quick brown fox jumps over the lazy dog and runs far away "
            "into the woods where a stream flows past tall trees")
    day1 = [(0, body), (1, "completely unrelated text about ray data pipelines")]
    day2 = [(10, body), (11, body + " again")]
    clean, art = str(tmp_path / "clean"), str(tmp_path / "crashed")
    for d in (clean, art):
        increment.run_increment(_docs(day1), d, threshold=0.5)
    increment.run_increment(_docs(day2), clean, threshold=0.5)

    real_rename, calls = os.rename, []

    def crash_on_second(src, dst):
        if str(src).startswith(art):
            calls.append((src, dst))
            if len(calls) == 2:
                raise OSError("simulated crash")
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", crash_on_second)
    with pytest.raises(OSError, match="simulated crash"):
        increment.run_increment(_docs(day2), art, threshold=0.5)
    monkeypatch.undo()
    hashes = os.path.join(art, "hashes")
    assert calls[0] == (hashes, hashes + ".old")
    assert not os.path.isdir(hashes) and os.path.isdir(hashes + ".old")

    m = increment.run_increment(_docs(day2), art, threshold=0.5)
    assert not os.path.exists(hashes + ".old")
    assert m["novel_hashes"] == 1 and m["flagged"] == 2
    assert _labels(art) == _labels(clean)


def test_recover_drops_stale_old_copy(tmp_path):
    # a crash after the second rename leaves both copies: the new one wins
    out = tmp_path / "labels"
    (tmp_path / "labels.old").mkdir()
    out.mkdir()
    (out / "part.parquet").write_bytes(b"")
    increment._recover(str(out))
    assert out.is_dir() and (out / "part.parquet").exists()
    assert not (tmp_path / "labels.old").exists()
