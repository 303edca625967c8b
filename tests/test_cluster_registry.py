"""Tests: connected components (both plans), external table-inputs
broadcast join."""

import pyarrow as pa
import pytest
import ray

from pdftext_ray.kernel.document import ExtractConfig
from pdftext_ray.ops import cluster
from pdftext_ray.pipelines import extract as P


def _pairs(edges):
    return ray.data.from_arrow(
        pa.table({"doc_a": [a for a, _ in edges], "doc_b": [b for _, b in edges]})
    )


EDGES = [(1, 2), (2, 3), (5, 6), (9, 1), (10, 11)]
WANT = {1: 1, 2: 1, 3: 1, 5: 5, 6: 5, 9: 1, 10: 10, 11: 10}


def test_connected_components_local():
    t = cluster.connected_components_local(_pairs(EDGES))
    assert dict(zip(t.column("doc_id").to_pylist(), t.column("cluster_id").to_pylist())) == WANT


def test_connected_components_distributed_matches_local():
    df = cluster.connected_components_distributed(_pairs(EDGES)).to_pandas()
    assert dict(zip(df["doc_id"], df["cluster_id"])) == WANT


def test_connected_components_chain_converges():
    chain = [(i, i + 1) for i in range(15)]
    df = cluster.connected_components_distributed(_pairs(chain)).to_pandas()
    assert set(df["cluster_id"]) == {0} and len(df) == 16


def test_connected_components_long_path_single_cluster():
    """Regression: the pre-round-4 star-contraction plan silently emitted
    904 clusters for a 5k-node path (edge blowup + a 12-round cap with no
    convergence check on exit). One long path must label as ONE component."""
    n = 3000
    path = [(i, i + 1) for i in range(n - 1)]
    df = cluster.connected_components_distributed(_pairs(path)).to_pandas()
    assert set(df["cluster_id"]) == {0}
    assert len(df) == n


def test_connected_components_distributed_rounds_match_local_plan():
    """Force the shuffled large-star/small-star rounds (local_threshold=1)
    on a path long enough to need several of them; labels must equal the
    union-find reference exactly."""
    n = 200
    path = [(i, i + 1) for i in range(n - 1)]
    df = (
        cluster.connected_components_distributed(_pairs(path), local_threshold=1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    ref = (
        cluster.connected_components_local(_pairs(path))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert df.equals(ref)


def test_edge_sets_equal_exact_confirmation():
    """The convergence fingerprint is only a pre-filter: _edge_sets_equal is
    the exact criterion (round-4 ADVICE — a hash-sum collision must never
    declare convergence early)."""

    def _e(rows):
        return ray.data.from_arrow(
            pa.table({"node": [a for a, _ in rows], "peer": [b for _, b in rows]})
        )

    a = [(1, 2), (2, 1), (3, 4), (4, 3)]
    assert cluster._edge_sets_equal(_e(a), _e(a), parts=4)
    # same multiset modulo duplicates → still equal as SETS
    assert cluster._edge_sets_equal(_e(a), _e(a + [(1, 2)]), parts=4)
    # one differing edge → unequal
    assert not cluster._edge_sets_equal(_e(a), _e(a[:2] + [(3, 5), (5, 3)]), parts=4)
    # subset → unequal
    assert not cluster._edge_sets_equal(_e(a), _e(a[:2]), parts=4)


def test_connected_components_unconverged_raises():
    """Exhausting max_rounds must raise — never emit unconverged labels."""
    n = 64
    path = [(i, i + 1) for i in range(n - 1)]
    with pytest.raises(RuntimeError, match="no convergence"):
        cluster.connected_components_distributed(
            _pairs(path), max_rounds=2, local_threshold=1
        ).to_pandas()


def test_kmeans_separates_blobs_and_matches_golden():
    import numpy as np

    from pdftext_ray.pipelines.goldens import expected_kmeans_table

    rng = np.random.RandomState(11)
    centers = np.array([[0.0] * 8, [10.0] * 8, [-10.0, 10.0] * 4])
    vecs = np.concatenate([c + rng.randn(30, 8) * 0.3 for c in centers])
    # interleave blobs so the k lowest ids seed one centroid per blob
    # (all-in-one-blob seeding is a legitimate bad local optimum for Lloyd)
    vecs = vecs[np.arange(90).reshape(3, 30).T.flatten()]
    ids = np.arange(len(vecs), dtype=np.int64)
    # shuffle row order so the op's lowest-id init has to find the seeds
    perm = rng.permutation(len(vecs))
    ds = ray.data.from_arrow(
        pa.table({"vec_id": ids[perm], "embedding": pa.array(list(vecs[perm]), pa.list_(pa.float64()))})
    ).repartition(4)
    out = cluster.kmeans_assign(ds, k=3, iters=5).to_pandas().sort_values("vec_id")
    golden = expected_kmeans_table(ids.tolist(), vecs, k=3, iters=5).to_pandas()
    assert list(out["cluster"]) == list(golden["cluster"])
    assert np.allclose(out["dist"].to_numpy(), golden["dist"].to_numpy())
    # each planted blob lands in exactly one cluster
    labels = out["cluster"].to_numpy()
    assert all(len(set(labels[i::3])) == 1 for i in range(3))
    assert len(set(labels[:3])) == 3


def test_external_table_inputs_broadcast_join():
    """Same page as the payload-annotation path, but regions supplied via a
    separate keyed table (reference table_output's TableInputs argument)."""
    from tests.test_links_tables import _table_page

    payload = _table_page(1.0)
    docs = ray.data.from_arrow(
        pa.table(
            {
                "doc_id": ["d0", "d1"],
                "spans": [
                    [{"kind": "text", "text": payload, "media_ref": "", "offset": 0}],
                    [{"kind": "text", "text": payload, "media_ref": "", "offset": 0}],
                ],
            }
        )
    )
    inputs = pa.table(
        {
            "doc_id": ["d0"],  # only d0 has detected tables
            "page": [0],
            "tables": [[[50.0, 90.0, 250.0, 150.0]]],
            "img_size": [[612.0, 792.0]],
        }
    )
    out = P.extract(docs, "tables", table_inputs=inputs).to_pandas()
    assert set(out["doc_id"]) == {"d0"}
    cells = out.iloc[0]["cells"]
    assert [c["text"] for c in cells] == ["c00", "c01", "c02", "c10", "c11", "c12"]


def test_multimodal_loop_closure():
    """Extraction's media spans drive the featurizer via media_ref."""
    import ray.data
    from pdftext_ray.pipelines import corpus_io, multimodal

    ds = ray.data.from_arrow(corpus_io.generate_corpus_table(2 * 20).select(["doc_id", "spans"]))
    seq = P.extract(ds)
    payloads = multimodal.synth_payloads_for_corpus(seq)
    assert payloads.num_rows > 0
    feats = multimodal.featurize_referenced_media(seq, payloads).to_pandas()
    assert len(feats) == payloads.num_rows
    assert set(feats.columns) >= {"media_ref", "media_type", "feature", "frames_sampled"}
    assert all(len(f) == 48 for f in feats["feature"])


def test_clean_corpus_gates_and_dedups():
    import pandas as pd
    from pdftext_ray.pipelines.clean import clean_corpus

    base = ("the quick brown fox and a dog ran over to the stream in the woods "
            "where a tall tree stood and the sun rose over the hills far away")
    df = pd.DataFrame({
        "doc_id": [1, 2, 3, 4, 5],
        "text": [
            base,              # good
            base,              # exact dup of 1 -> dropped
            "short text",      # too few tokens -> dropped
            "1234 5678 " * 20, # no alpha -> dropped
            base + " extra",   # good, distinct
        ],
    })
    out = clean_corpus(ray.data.from_pandas(df)).to_pandas().sort_values("doc_id")
    assert list(out["doc_id"]) == [1, 5]
    assert (out["n_tokens"] >= 20).all()


def test_training_mixture_composes_stages():
    import numpy as np
    import pandas as pd
    from pdftext_ray.pipelines.mixture import training_mixture

    base = ("the quick brown fox and a dog ran over to the stream in the woods "
            "where a tall tree stood and the sun rose over the hills far away")
    rows = []
    for i in range(200):
        lang = "en" if i % 4 else "zh"
        rows.append((i, f"{base} variant {i}", lang))
    # plant exact dups (same text as doc 0) and junk rows
    rows += [(500, f"{base} variant 0", "en"), (501, "short", "en"),
             (502, "9999 " * 40, "en")]
    df = pd.DataFrame(rows, columns=["doc_id", "text", "lang"])
    out = training_mixture(
        ray.data.from_pandas(df), budget=64, alpha=0.5
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    # junk and the duplicate never survive
    assert not set(out["doc_id"]) & {500, 501, 502}
    # packed stream: offsets are the exclusive prefix sum in doc_id order
    n = out["n_tokens"].to_numpy()
    start = out["start_offset"].to_numpy()
    assert np.array_equal(start, np.concatenate([[0], np.cumsum(n[:-1])]))
    assert np.array_equal(out["seq_id"], start // 64)
    assert np.array_equal(out["seq_pos"], start % 64)
    # layout independence: a 7-block reversed layout yields identical rows
    out2 = training_mixture(
        ray.data.from_pandas(df.iloc[::-1]).repartition(7), budget=64, alpha=0.5
    ).to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(out, out2[out.columns])


def test_cluster_balanced_sample_caps_and_layout():
    import numpy as np
    from pdftext_ray.ops.cluster import cluster_balanced_sample
    from pdftext_ray.pipelines.goldens import expected_kmeans_table

    rng = np.random.RandomState(6)
    centers = rng.standard_normal((4, 16)) * 8
    ids = list(range(224))
    # round-robin so the lowest-id kmeans seeds span all true clusters
    vecs = [centers[i % 4] + 0.05 * rng.standard_normal(16) for i in ids]
    ds = ray.data.from_arrow(
        pa.table({"vec_id": ids, "embedding": [v.tolist() for v in vecs]})
    )
    out = cluster_balanced_sample(ds, per_cluster=10, k=4).to_pandas()
    per = out.groupby("cluster").size()
    assert (per <= 10).all() and len(out) == 40
    # scalar replication: kmeans golden assignment + bottom-10 hash draw
    golden = expected_kmeans_table(ids, np.asarray(vecs), k=4).to_pandas()
    K = 0x9E3779B97F4A7C15
    golden["_h"] = [(((i + 17) * K) % (1 << 64)) >> 32 for i in golden["vec_id"]]
    want = (
        golden.sort_values(["_h", "vec_id"]).groupby("cluster").head(10)
    )
    assert set(map(tuple, out[["vec_id", "cluster"]].values.tolist())) == set(
        map(tuple, want[["vec_id", "cluster"]].values.tolist())
    )
    # layout-independent: reversed 5-block layout keeps the same ids
    ds2 = ray.data.from_arrow(
        pa.table({"vec_id": ids[::-1], "embedding": [v.tolist() for v in vecs[::-1]]})
    ).repartition(5)
    out2 = cluster_balanced_sample(ds2, per_cluster=10, k=4).to_pandas()
    assert sorted(out2["vec_id"]) == sorted(out["vec_id"])
