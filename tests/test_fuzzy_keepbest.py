"""End-to-end fuzzy dedup with best-doc retention vs a scalar replication
(word-3-gram set Jaccard → union-find → per-cluster argmax)."""

import numpy as np
import pyarrow as pa
import pytest
import ray.data

from pdftext_ray.ops import dedup


def _corpus():
    base = "the quick brown fox jumps over the lazy dog again and again today"
    docs = {
        0: base,
        1: base + " extra",                      # near-dup of 0
        2: base.replace("quick", "slow"),        # near-dup of 0
        3: "completely different text about ray data pipelines and arrow",
        4: "completely different text about ray data pipelines and arrow",  # exact dup of 3
        5: "short",
        6: "",                                    # empty doc: never pairs
        7: "unrelated singleton content with enough words to stand alone",
    }
    return pa.table({"doc_id": list(docs), "text": list(docs.values())})


def _grams(text):
    t = text.split()
    if len(t) >= 3:
        return {" ".join(t[i:i + 3]) for i in range(len(t) - 2)}
    return {" ".join(t)} if t else set()


def _scalar(t: pa.Table, threshold=0.4):
    ids = t["doc_id"].to_pylist()
    g = {i: _grams(s) for i, s in zip(ids, t["text"].to_pylist())}
    n = {i: len(s.split()) for i, s in zip(ids, t["text"].to_pylist())}
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in ids:
        for b in ids:
            if a < b and len(g[a] & g[b]) / max(len(g[a] | g[b]), 1) >= threshold:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    clusters = {}
    for i in ids:
        clusters.setdefault(find(i), []).append(i)
    out = {}
    for members in clusters.values():
        best = min(members, key=lambda i: (-n[i], i))
        out[best] = (n[best], len(members))
    return out


@pytest.fixture(params=["broadcast", "distributed"])
def branch(request, monkeypatch):
    """Both cluster-labelling branches: a pair cap of 0 sends every pair set
    to the distributed connected components and keyed label merge."""
    if request.param == "distributed":
        monkeypatch.setattr(dedup, "_KEEPBEST_BROADCAST_PAIRS", 0)
    return request.param


def test_fuzzy_keepbest_matches_scalar(branch):
    t = _corpus()
    got = (
        dedup.fuzzy_dedup_keepbest(ray.data.from_arrow(t), threshold=0.4)
        .to_pandas()
        .set_index("doc_id")
        .sort_index()
    )
    want = _scalar(t)
    assert set(got.index) == set(want)
    for i, (nt, nd) in want.items():
        assert (got.loc[i, "n_tokens"], got.loc[i, "n_dups"]) == (nt, nd)
    # sanity on the constructed corpus: 0/1/2 cluster → longest (1) survives
    assert 1 in want and want[1][1] == 3
    # 3/4 exact dup → lowest id wins the tie
    assert 3 in want and want[3][1] == 2


def test_fuzzy_keepbest_layout_independent():
    t = _corpus()
    a = dedup.fuzzy_dedup_keepbest(ray.data.from_arrow(t)).to_pandas()
    b = dedup.fuzzy_dedup_keepbest(ray.data.from_arrow(t).repartition(5)).to_pandas()
    key = ["doc_id", "n_tokens", "n_dups"]
    assert a.sort_values("doc_id")[key].reset_index(drop=True).equals(
        b.sort_values("doc_id")[key].reset_index(drop=True)
    )
