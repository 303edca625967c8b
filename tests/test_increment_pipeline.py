"""End-to-end daily-increment pipeline: three rolling days against persisted
artifacts must equal the trivially-computed from-scratch state (hash set,
signature census, union-find clusters over all verdict edges)."""

import contextlib
import hashlib
import os
import shutil

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
import ray

from pdftext_ray import storage
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


# day 2 brings an exact copy (doc 10) and a near copy (doc 11) of day 1's doc 0
_BODY = ("the quick brown fox jumps over the lazy dog and runs far away "
         "into the woods where a stream flows past tall trees")
_DAY1 = [(0, _BODY), (1, "completely unrelated text about ray data pipelines")]
_DAY2 = [(10, _BODY), (11, _BODY + " again")]

# every filesystem call day 2's commit makes, as (function, entry under the
# artifact dir): the swaps, the commit point, then the clean-up
_DAY2_COMMIT_CALLS = [
    ("rename", "hashes"), ("rename", "hashes.tmp"),
    ("rename", "sigs"), ("rename", "sigs.tmp"),
    ("rename", "labels"), ("rename", "labels.tmp"),
    ("replace", "_committed.tmp"),
    ("rmtree", "hashes.old"), ("rmtree", "labels.old"), ("rmtree", "sigs.old"),
    ("remove", "_committed"),
]


@contextlib.contextmanager
def _fs_calls(root, fail=None):
    """Record the rename/replace/rmtree/remove calls on entries of ``root``;
    the first call equal to ``fail`` raises OSError instead of running."""
    calls = []
    real = {"rename": os.rename, "replace": os.replace,
            "remove": os.remove, "rmtree": shutil.rmtree}

    def wrap(fn):
        def call(path, *args, **kwargs):
            if str(path).startswith(root + os.sep):
                calls.append((fn, os.path.relpath(path, root)))
                if calls[-1] == fail:
                    raise OSError(f"injected crash at {fail}")
            return real[fn](path, *args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as mp:
        for fn in ("rename", "replace", "remove"):
            mp.setattr(os, fn, wrap(fn))
        mp.setattr(shutil, "rmtree", wrap("rmtree"))
        yield calls


def _artifacts(art):
    hashes, sigs, labels = (
        pq.read_table(f"{art}/{name}").to_pandas() for name in ("hashes", "sigs", "labels"))
    return (
        sorted(hashes["text_hash"]),
        {i: list(s) for i, s in zip(sigs["doc_id"], sigs["minhash"])},
        dict(zip(labels["doc_id"], labels["cluster_id"])),
    )


@pytest.fixture(scope="module")
def two_days(tmp_path_factory):
    """Day 1's artifacts, and day 2 run on a copy of them with its
    filesystem calls recorded."""
    root = tmp_path_factory.mktemp("days")
    day1, clean = str(root / "day1"), str(root / "clean")
    increment.run_increment(_docs(_DAY1), day1, threshold=0.5)
    shutil.copytree(day1, clean)
    with _fs_calls(clean) as calls:
        metrics = increment.run_increment(_docs(_DAY2), clean, threshold=0.5)
    return day1, clean, metrics, calls


def test_days_run_no_keyed_exchange(two_days, tmp_path):
    # the increment-sized work runs in one task per op: with every keyed
    # exchange of Ray Data made to raise, both days still give the same
    # metrics and labels as the unpatched run
    day1, clean, clean_metrics, _ = two_days

    def refuse(*args, **kwargs):
        raise AssertionError("keyed exchange in the daily loop")

    art = str(tmp_path / "a")
    with pytest.MonkeyPatch.context() as mp:
        for name in ("groupby", "repartition", "sort", "random_shuffle"):
            mp.setattr(ray.data.Dataset, name, refuse)
        increment.run_increment(_docs(_DAY1), art, threshold=0.5)
        assert _artifacts(art) == _artifacts(day1)
        metrics = increment.run_increment(_docs(_DAY2), art, threshold=0.5)
    assert metrics == clean_metrics
    assert _artifacts(art) == _artifacts(clean)


def test_day2_commit_calls(two_days):
    _, clean, metrics, calls = two_days
    assert calls == _DAY2_COMMIT_CALLS
    assert sorted(os.listdir(clean)) == ["hashes", "labels", "sigs"]
    assert metrics["sigs_rows"] == 4
    assert _artifacts(clean)[2] == {0: 0, 10: 0, 11: 0}


@pytest.mark.parametrize(
    "fail", _DAY2_COMMIT_CALLS, ids=[f"{fn}-{entry}" for fn, entry in _DAY2_COMMIT_CALLS])
def test_day2_crash_at_any_commit_step(two_days, tmp_path, fail):
    # a crash at any filesystem step of the day's commit either raises
    # (nothing committed: the rerun equals the clean run) or leaves the
    # clean run's artifacts in place; the labels-swap case is the one where
    # per-artifact swaps left sigs a day ahead of labels
    day1, clean, clean_metrics, _ = two_days
    art = str(tmp_path / "crashed")
    shutil.copytree(day1, art)
    try:
        with _fs_calls(art, fail) as calls:
            metrics = increment.run_increment(_docs(_DAY2), art, threshold=0.5)
        committed = True
    except OSError as e:
        assert "injected crash" in str(e)
        committed = False
        metrics = increment.run_increment(_docs(_DAY2), art, threshold=0.5)
    assert fail in calls
    assert metrics == clean_metrics
    assert _artifacts(art) == _artifacts(clean)
    if committed:  # a failed clean-up after the commit point: next entry's job
        storage.recover(art)
    assert sorted(os.listdir(art)) == ["hashes", "labels", "sigs"]


def test_day1_crash_at_commit_point(two_days, tmp_path):
    # the first commit has no old copies to put back: undoing it leaves
    # empty artifact dirs, which the rerun reads as empty baselines
    day1 = two_days[0]
    art = str(tmp_path / "crashed")
    with pytest.raises(OSError, match="injected crash"):
        with _fs_calls(art, ("replace", "_committed.tmp")):
            increment.run_increment(_docs(_DAY1), art, threshold=0.5)
    storage.recover(art)
    assert {d: os.listdir(os.path.join(art, d)) for d in os.listdir(art)} == {
        "hashes": [], "labels": [], "sigs": []}
    m = increment.run_increment(_docs(_DAY1), art, threshold=0.5)
    assert m["novel_hashes"] == 2 and m["sigs_rows"] == 2 and m["labels_rows"] == 0
    assert _artifacts(art) == _artifacts(day1)


def _empty_parquet_read(tmp_path):
    pq.write_table(pa.table({"k": pa.array([], pa.int64())}), str(tmp_path / "p.parquet"))
    return ray.data.read_parquet(str(tmp_path)).materialize()


def _columnless(tmp_path):
    return ray.data.from_arrow([pa.table({})]).map_batches(lambda t: t, batch_format="pyarrow").materialize()


@pytest.mark.parametrize("make", [_empty_parquet_read, _columnless], ids=["empty_parquet", "columnless"])
@pytest.mark.parametrize("op", ["in_one_task", "key_set", "collect"])
def test_probe_runs_no_schema_fetch(tmp_path, make, op):
    # a materialized dataset whose blocks carry no schema costs the probe
    # helpers no Ray Data execution (to_arrow_refs ran one more, limit 1, to
    # fetch the schema)
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    from pdftext_ray.ops import probe

    ds = make(tmp_path)
    calls = {
        "in_one_task": lambda: probe.in_one_task(lambda b: pa.table({"n": [len(b)]}), ds).materialize(),
        "key_set": lambda: ray.get(probe.key_set(ds, lambda t: t.column("k"))),
        "collect": lambda: probe.collect(ds, pa.schema([("k", pa.int64())])),
    }
    n = [0]
    real = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        n[0] += 1
        return real(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(StreamingExecutor, "execute", execute)
        calls[op]()
    assert n[0] == 0
