"""Round-2 additions: golden-builder ⇄ pipeline equality for the formerly
rows-only ops, exact-recall candidate generation, full-probe embedding LSH,
distributed-vs-local connected components, and the bruteforce size guard.

The golden builders in pipelines/goldens.py are independent scalar
reimplementations; these tests pin that the vectorized Ray operators produce
value-identical results — the same property the driver gate checks via
DuckDB, verified here without parquet round-trips.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from pdftext_ray.ops import cluster, dedup, media, textstats
from pdftext_ray.pipelines import goldens

TEXTS = [
    "the quick brown fox jumps over the lazy dog every morning before breakfast",
    "the quick brown fox jumps over the lazy dog every evening before breakfast",
    "completely unrelated content about distributed dataflow engines and arrow",
    "short",
    "",
    "unicode tokens: élève naïve straße 中文 words mixed in",
]
IDS = list(range(len(TEXTS)))


def _docs_ds():
    return ray.data.from_arrow(pa.table({"doc_id": IDS, "text": TEXTS}))


def test_simhash_pipeline_matches_scalar_golden():
    # long near-identical docs: SimHash bit votes need many shared tokens
    # before single-token edits land within hamming 3
    rng = np.random.RandomState(5)
    vocab = [f"w{i}" for i in range(300)]
    base_toks = [vocab[i] for i in rng.choice(300, size=150, replace=False)]
    texts = [
        " ".join(base_toks),
        " ".join(base_toks[:-1] + ["zzz"]),
        " ".join(base_toks + ["extra"]),
        "entirely different words about nothing shared",
    ]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    got = (
        dedup.simhash_pairs(ds, max_hamming=3)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    want = goldens.expected_simhash_pairs_table(ids, texts, max_hamming=3).to_pandas()
    want = want.sort_values(["doc_a", "doc_b"]).reset_index(drop=True)
    assert len(want) > 0, "corpus must plant a hamming<=3 pair"
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def test_winnow_pipeline_matches_scalar_golden():
    ds = textstats.winnow_fingerprints(_docs_ds())
    got = {}
    for r in ds.to_pandas().to_dict("records"):
        got[r["doc_id"]] = sorted(r["fingerprints"])
    for did, text in zip(IDS, TEXTS):
        assert got[did] == goldens.winnow_scalar(text), f"doc {did}"


def test_media_features_match_scalar_golden():
    n = 12
    feats = media.featurize_media(ray.data.from_arrow(media.synth_media_table(n))).to_pandas()
    want = goldens.expected_media_features_table(n).to_pandas()
    got_map = {r["media_ref"]: np.asarray(r["feature"], dtype=np.float64) for _, r in feats.iterrows()}
    for ref, grp in want.groupby("media_ref"):
        w = grp.sort_values("feat_idx")["feat_value"].to_numpy()
        assert np.array_equal(got_map[ref], w), ref


def test_minhash_exact_recall_catches_band_misses():
    """A pair at Jaccard exactly ~0.5 can be missed by 16x4 banding (~36%
    probability per ADVICE r1); the inverted-index union must make the
    verified output exactly the >=threshold set for EVERY seeded corpus."""
    rng = np.random.RandomState(123)
    vocab = [f"tok{i}" for i in range(200)]
    texts, ids = [], []
    for i in range(30):
        base = [vocab[j] for j in rng.choice(200, size=40, replace=False)]
        texts.append(" ".join(base))
        ids.append(2 * i)
        # 4-5 mutations of 40 tokens puts gram-Jaccard in ~[0.43, 0.73] —
        # straddling the 0.45 threshold where 16x4 banding has real misses
        mutated = list(base)
        for p in rng.choice(40, size=4 + (i % 2), replace=False):
            mutated[p] = vocab[int(rng.randint(200))]
        texts.append(" ".join(mutated))
        ids.append(2 * i + 1)
    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    got = (
        dedup.minhash_lsh_pairs(ds, threshold=0.45, exact_recall=True)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )

    # independent exact all-pairs oracle
    def grams(t):
        toks = t.split()
        return set(" ".join(toks[i:i + 3]) for i in range(len(toks) - 2))

    gm = {d: grams(t) for d, t in zip(ids, texts)}
    want = []
    for a in sorted(ids):
        for b in sorted(ids):
            if a < b:
                j = len(gm[a] & gm[b]) / max(len(gm[a] | gm[b]), 1)
                if j >= 0.45:
                    want.append((a, b, round(j, 6)))
    assert list(map(tuple, got[["doc_a", "doc_b"]].values.tolist())) == [(a, b) for a, b, _ in want]
    assert np.allclose(got["jaccard"].values, [j for _, _, j in want], atol=1e-9)
    assert len(want) >= 10, "corpus must actually plant near-threshold pairs"


def test_embedding_full_probe_is_exact():
    rng = np.random.RandomState(7)
    vecs = rng.standard_normal((40, 16))
    vecs[13] = vecs[4] + rng.standard_normal(16) * 0.05
    vecs[29] = -vecs[4]  # anti-correlated: must NOT pair
    ds = ray.data.from_arrow(
        pa.table({"vec_id": list(range(40)), "embedding": [v.tolist() for v in vecs]})
    )
    got = (
        dedup.embedding_dup_pairs(ds, threshold=0.6, n_planes=4, probe_radius=4)
        .to_pandas()
        .sort_values(["id_a", "id_b"])
        .reset_index(drop=True)
    )
    unit = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = unit @ unit.T
    ia, ib = np.triu_indices(40, k=1)
    keep = sims[ia, ib] >= 0.6
    assert list(map(tuple, got[["id_a", "id_b"]].values.tolist())) == list(
        zip(ia[keep].tolist(), ib[keep].tolist())
    )
    assert (4, 13) in set(map(tuple, got[["id_a", "id_b"]].values.tolist()))


def test_embedding_probe_radius_validation():
    ds = ray.data.from_arrow(pa.table({"vec_id": [0], "embedding": [[1.0, 0.0]]}))
    with pytest.raises(ValueError):
        dedup.embedding_dup_pairs(ds, n_planes=4, probe_radius=5)


def test_bruteforce_guard_raises_past_cap():
    ds = ray.data.from_arrow(
        pa.table({"vec_id": list(range(10)), "embedding": [[1.0, 0.0]] * 10})
    )
    with pytest.raises(ValueError, match="max_rows"):
        dedup.embedding_pairs_bruteforce(ds, max_rows=5)


def test_distributed_cc_matches_local_union_find():
    pairs = pa.table({
        "doc_a": [1, 2, 10, 11, 20, 3],
        "doc_b": [2, 3, 11, 12, 21, 7],
    })
    ds = ray.data.from_arrow(pairs)
    dist = (
        cluster.connected_components_distributed(ds)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    local = (
        cluster.connected_components_local(ray.data.from_arrow(pairs))
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(dist, local, check_dtype=False)
    # chained component {1,2,3,7} must share min label 1
    lab = dict(zip(dist["doc_id"], dist["cluster_id"]))
    assert lab[1] == lab[2] == lab[3] == lab[7] == 1


def test_minhash_empty_docs_never_pair():
    """Empty docs share the all-sentinel minhash signature (always
    co-bucketed by banding) but have empty shingle sets — the SQL oracle
    scores them 0, so the verified output must NOT pair them (round-2
    review finding: _jaccard_sorted used to return 1.0 for two empty
    sets)."""
    ds = ray.data.from_arrow(
        pa.table({"doc_id": [0, 1, 2, 3], "text": ["", "   ", "alpha beta gamma delta", "alpha beta gamma delta"]})
    )
    out = dedup.minhash_lsh_pairs(ds, threshold=0.5, exact_recall=True).to_pandas()
    pairs = set(map(tuple, out[["doc_a", "doc_b"]].values.tolist()))
    assert pairs == {(2, 3)}
    assert out[out["doc_a"] == 2]["jaccard"].iloc[0] == 1.0


def test_ngram_max_doc_freq_two_phase_exact_values():
    """DF-pruned mode may miss pairs whose shared grams are all hot, but
    every emitted pair must carry the exact full-set jaccard (the verify
    phase uses the UN-pruned gram sets)."""
    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts = [base, base + " extra", base.replace("delta", "omega"), "unrelated words only here now"]
    ids = list(range(len(texts)))
    ds = ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))
    full = dedup.ngram_jaccard_pairs(ds, threshold=0.3).to_pandas()
    pruned = dedup.ngram_jaccard_pairs(
        ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts})), threshold=0.3, max_doc_freq=3
    ).to_pandas()
    fk = set(map(tuple, full[["id_a", "id_b"]].values.tolist()))
    pk = set(map(tuple, pruned[["id_a", "id_b"]].values.tolist()))
    assert pk <= fk and len(fk) > 0
    fmap = {(r["id_a"], r["id_b"]): r["jaccard"] for r in full.to_dict("records")}
    for r in pruned.to_dict("records"):
        assert fmap[(r["id_a"], r["id_b"])] == r["jaccard"]


def test_ngram_hot_df_guard_fires_and_is_optoutable():
    """The exact plan is DF-guarded by default (VERDICT r2 item 3): a gram
    hotter than hot_df_limit raises instead of silently emitting C(df,2)
    rows; None opts back into the unguarded exact plan with identical
    values."""
    import pytest

    # one shared 3-gram across 12 docs, unique tails → df=12 for the head gram
    texts = [f"common shared gram tail{i} filler{i} more{i}" for i in range(12)]
    ids = list(range(len(texts)))

    def mk():
        return ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))

    with pytest.raises(Exception, match="hot_df_limit"):
        dedup.ngram_jaccard_pairs(mk(), threshold=0.1, hot_df_limit=10).to_pandas()

    unguarded = dedup.ngram_jaccard_pairs(mk(), threshold=0.1, hot_df_limit=None).to_pandas()
    default_ok = dedup.ngram_jaccard_pairs(mk(), threshold=0.1).to_pandas()  # df=12 < 1000
    assert len(unguarded) == len(default_ok) == 12 * 11 // 2
    assert sorted(unguarded["jaccard"]) == sorted(default_ok["jaccard"])


def test_hash_sampling_and_split_deterministic():
    from pdftext_ray.ops import sampling

    t = pa.table({"doc_id": list(range(2000)), "v": list(range(2000))})
    ds = ray.data.from_arrow(t)
    s1 = sorted(sampling.hash_sample(ds, 0.1).to_pandas()["doc_id"])
    # different block layout, same rows
    ds2 = ray.data.from_arrow(t).repartition(7)
    s2 = sorted(sampling.hash_sample(ds2, 0.1).to_pandas()["doc_id"])
    assert s1 == s2 and 120 < len(s1) < 280  # ~10% of 2000

    sp = sampling.hash_split(ds, {"train": 0.8, "val": 0.1, "test": 0.1}).to_pandas()
    counts = sp["split"].value_counts().to_dict()
    assert set(counts) == {"train", "val", "test"}
    assert counts["train"] > 1400 and len(sp) == 2000
    # splits are a partition: every doc in exactly one split
    assert sp["doc_id"].is_unique

    # string keys use the md5 path and stay deterministic
    st = pa.table({"doc_id": [f"d{i}" for i in range(500)], "v": list(range(500))})
    a = sorted(sampling.hash_sample(ray.data.from_arrow(st), 0.2).to_pandas()["doc_id"])
    b = sorted(sampling.hash_sample(ray.data.from_arrow(st).repartition(5), 0.2).to_pandas()["doc_id"])
    assert a == b and 50 < len(a) < 150

    with pytest.raises(ValueError):
        sampling.hash_split(ds, {"train": 0.5, "val": 0.1})


def test_sampling_input_validation():
    from pdftext_ray.ops import sampling

    neg = ray.data.from_arrow(pa.table({"doc_id": [-1, 2, 3], "v": [1, 2, 3]}))
    with pytest.raises(Exception, match="non-negative"):
        sampling.hash_sample(neg, 0.5).to_pandas()
    ok = ray.data.from_arrow(pa.table({"doc_id": [1, 2, 3]}))
    with pytest.raises(ValueError, match=r"\(0, 1\]"):
        sampling.hash_split(ok, {"a": 1.5, "b": -0.5})


def test_substring_dedup_first_occurrence_semantics():
    """Windowed exact-substring dedup (Lee et al. 2022): the globally FIRST
    occurrence (by (doc_id, start)) of a duplicated k-token window survives;
    later occurrences — including intra-document repeats — lose every token
    covered by a duplicated window. Output text is tokens re-joined by
    single spaces."""
    dup = "one two three four"  # k=4 window shared verbatim
    texts = [
        f"{dup} tail0 a b",            # doc 0: canonical occurrence, kept whole
        f"head1 {dup} tail1",          # doc 1: loses the 4 dup tokens
        f"{dup} mid {dup}",            # doc 2: loses BOTH occurrences (doc 0 is first)
        "totally unrelated words here",
    ]
    ds = ray.data.from_arrow(pa.table({"doc_id": [0, 1, 2, 3], "text": texts}))
    out = (
        dedup.substring_dedup(ds, k=4)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert out["text"].tolist() == [
        "one two three four tail0 a b",
        "head1 tail1",
        "mid",
        "totally unrelated words here",
    ]
    assert out["n_removed"].tolist() == [0, 4, 8, 0]


def test_substring_dedup_layout_independent():
    """Removal choice depends only on (doc_id, start) order, never on block
    layout (invariant 11): different partitionings produce identical
    outputs."""
    base = "alpha beta gamma delta epsilon zeta eta theta"
    texts = [f"{base} u{i}" if i % 3 else f"pre{i} {base}" for i in range(24)]
    t = pa.table({"doc_id": list(range(24)), "text": texts})
    a = (
        dedup.substring_dedup(ray.data.from_arrow(t), k=5)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    b = (
        dedup.substring_dedup(ray.data.from_arrow(t).repartition(7), k=5)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    assert a["n_removed"].sum() > 0


def test_substring_dedup_property_vs_reference():
    """Hypothesis-style randomized check (seeded loop — each example runs a
    full Ray pipeline, so examples are few and small): tiny vocab forces
    heavy window collisions; the engine must equal a pure-Python reference
    on every corpus."""
    rng = np.random.RandomState(99)
    vocab = ["a", "b", "c", "d"]
    for trial in range(8):
        k = 2 + (trial % 2)
        n_docs = 4 + (trial % 4)
        ids = list(range(n_docs))
        texts = [
            " ".join(vocab[v] for v in rng.randint(0, len(vocab), size=rng.randint(0, 13)))
            for _ in ids
        ]

        occ: dict = {}
        for did, t in zip(ids, texts):
            toks = t.split()
            for i in range(len(toks) - k + 1):
                occ.setdefault(" ".join(toks[i : i + k]), []).append((did, i))
        removed: dict = {did: set() for did in ids}
        for lst in occ.values():
            if len(lst) > 1:
                for did, s in sorted(lst)[1:]:
                    removed[did].update(range(s, s + k))
        want = {
            did: (
                " ".join(t for j, t in enumerate(texts[did].split()) if j not in removed[did]),
                len(removed[did]),
            )
            for did in ids
        }

        got = (
            dedup.substring_dedup(
                ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts})), k=k
            )
            .to_pandas().set_index("doc_id")
        )
        assert len(got) == n_docs, f"trial {trial}"
        for did in ids:
            assert got.loc[did, "text"] == want[did][0], f"trial {trial} doc {did}"
            assert got.loc[did, "n_removed"] == want[did][1], f"trial {trial} doc {did}"


def _ngram_norm(df):
    return sorted(map(tuple, df[["id_a", "id_b", "jaccard"]].values.tolist()))


def _ngram_all_pairs(ids, texts, threshold, n=3):
    """Brute-force reference over all pairs: distinct \\S+ n-gram sets,
    jaccard = |∩| / max(|∪|, 1) rounded half away from zero to 6 places,
    kept when ≥ threshold; pairs as (id_a < id_b, jaccard)."""
    import math
    import re

    def grams(text):
        toks = re.findall(r"\S+", text)
        return {" ".join(toks[i:i + n]) for i in range(len(toks) - n + 1)}

    sets = [grams(t) for t in texts]
    out = []
    for i in range(len(ids)):
        for k in range(i + 1, len(ids)):
            a, b = sets[i], sets[k]
            j = len(a & b) / max(len(a | b), 1)
            if j >= threshold:
                out.append((*sorted((ids[i], ids[k])), math.floor(j * 1e6 + 0.5) / 1e6))
    return sorted(out)


def test_ngram_collapse_identical_equals_legacy_on_dup_heavy_corpus():
    """The identical-gram-set collapse (the ×10-stress fix) gives the exact
    all-pairs values on a corpus where every doc has 3 exact copies, for int
    AND string ids, and the DF-pruned plan's output is a subset of it that
    still holds every exact-copy pair (the clique step emits them whatever
    their gram frequency)."""
    base = [
        "alpha beta gamma delta epsilon zeta eta theta iota kappa",
        "alpha beta gamma delta epsilon zeta eta theta iota lambda",
        "one two three four five six seven eight nine ten",
        "short doc",  # <n tokens → empty gram set, must never pair
        "",
    ]
    texts, int_ids = [], []
    for j in range(4):
        for i, t in enumerate(base):
            int_ids.append(i + 100 * j)
            texts.append(t)

    def mk(ids):
        return ray.data.from_arrow(pa.table({"doc_id": ids, "text": texts}))

    new = _ngram_norm(dedup.ngram_jaccard_pairs(mk(int_ids), threshold=0.3).to_pandas())
    assert new == _ngram_all_pairs(int_ids, texts, 0.3) and len(new) > 0
    # the 4-copy cliques are present with exact jaccard 1.0
    cliques = {(a, b) for a, b, j in new if j == 1.0}
    assert len(cliques) >= 3 * (4 * 3 // 2)

    pruned = _ngram_norm(
        dedup.ngram_jaccard_pairs(mk(int_ids), threshold=0.3, max_doc_freq=3).to_pandas()
    )
    assert set(pruned) <= set(new)
    assert cliques <= {(a, b) for a, b, j in pruned}

    str_ids = [f"d{i:04d}" for i in range(len(int_ids))]
    s_new = _ngram_norm(dedup.ngram_jaccard_pairs(mk(str_ids), threshold=0.3).to_pandas())
    assert s_new == _ngram_all_pairs(str_ids, texts, 0.3) and len(s_new) == len(new)


def test_ngram_collapse_clique_guard_fires():
    """k identical copies emit C(k,2) output rows by definition; past
    hot_df_limit that is a guarded blowup with the exact_dedup remedy."""
    import pytest

    texts = ["the same exact document text here"] * 12
    ds = ray.data.from_arrow(pa.table({"doc_id": list(range(12)), "text": texts}))
    with pytest.raises(Exception, match="IDENTICAL"):
        dedup.ngram_jaccard_pairs(ds, threshold=0.1, hot_df_limit=10).to_pandas()
    ok = dedup.ngram_jaccard_pairs(
        ray.data.from_arrow(pa.table({"doc_id": list(range(12)), "text": texts})),
        threshold=0.1,
        hot_df_limit=None,
    ).to_pandas()
    assert len(ok) == 12 * 11 // 2
    assert (ok["jaccard"] == 1.0).all()
