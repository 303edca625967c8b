"""Incremental connected components (cluster stability across runs).

Probe strategy per CLAUDE.md invariant 15: every scenario is checked
against a TRIVIAL local reference (union-find over baseline ∪ increment
edges), never against the op's own machinery, and the topologies are the
adversarial ones that caught the round-4 CC bug — long chains spanning the
baseline/increment boundary, stars of merged cluster reps, duplicate
saturation, and new ids smaller than the persisted rep.
"""

import numpy as np
import pyarrow as pa
import ray

from pdftext_ray.ops import cluster


def _pairs(edges):
    return ray.data.from_arrow(
        pa.table({
            "doc_a": pa.array([a for a, _ in edges], pa.int64()),
            "doc_b": pa.array([b for _, b in edges], pa.int64()),
        })
    )


def _union_find(edges) -> dict:
    """Trivial local reference: full CC over an edge list, min-member ids,
    singletons omitted (matches connected_components_* output contract)."""
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


def _labels_ds(labels: dict):
    """Persisted label table as a Dataset — includes the (rep, rep) row,
    matching connected_components_distributed's output."""
    nodes = sorted(labels)
    return ray.data.from_arrow(pa.table({
        "doc_id": pa.array(nodes, pa.int64()),
        "cluster_id": pa.array([labels[n] for n in nodes], pa.int64()),
    }))


def _run(baseline_edges, inc_edges):
    """Returns (delta_df, updated_labels_dict, expected_labels_dict)."""
    base_labels = _union_find(baseline_edges)
    delta = cluster.incremental_connected_components(
        _pairs(inc_edges), _labels_ds(base_labels)
    ).to_pandas()
    updated = cluster.apply_incremental_cc(
        _labels_ds(base_labels), cluster.incremental_connected_components(
            _pairs(inc_edges), _labels_ds(base_labels)),
    ).to_pandas()
    got = dict(zip(updated["doc_id"], updated["cluster_id"]))
    want = _union_find(list(baseline_edges) + list(inc_edges))
    return delta, got, want


def test_simple_merge_and_assign():
    # baseline: {1,2,3} cluster 1, {5,6} cluster 5; increment: new node 20
    # joins cluster 5, and a bridge merges the two baseline clusters
    base = [(1, 2), (2, 3), (5, 6)]
    inc = [(20, 6), (3, 5)]
    delta, got, want = _run(base, inc)
    assert got == want
    kinds = dict(zip(delta["node"], delta["kind"]))
    assert kinds[5] == "remap" and kinds[20] == "assign"
    assert dict(zip(delta["node"], delta["cluster_id"]))[5] == 1


def test_long_chain_spanning_baseline_and_increment():
    # the round-4 bug topology, split across runs: a 3000-node path whose
    # even-offset edges are baseline and odd-offset edges the increment —
    # baseline = 1500 two-node clusters, increment chains them into ONE
    n = 3000
    base = [(i, i + 1) for i in range(0, n - 1, 2)]
    inc = [(i, i + 1) for i in range(1, n - 1, 2)]
    delta, got, want = _run(base, inc)
    assert got == want
    assert set(got.values()) == {0}
    # every baseline rep except 0 must be remapped to 0
    remaps = delta[delta["kind"] == "remap"]
    assert set(remaps["node"]) == set(range(2, n - 1, 2))
    assert set(remaps["cluster_id"]) == {0}


def test_star_of_reps_via_new_hub():
    # 50 disjoint baseline clusters; one NEW hub node pairs with one member
    # of each — everything collapses to the min baseline id
    base = [(10 * k, 10 * k + 1) for k in range(1, 51)]
    hub = 100_000
    inc = [(hub, 10 * k + 1) for k in range(1, 51)]
    delta, got, want = _run(base, inc)
    assert got == want
    assert set(got.values()) == {10}
    assert dict(zip(delta["node"], delta["cluster_id"]))[hub] == 10


def test_new_node_with_smaller_id_steals_rep():
    # increment node 0 joins baseline cluster 7 — min-member contract says
    # the persisted id 7 must remap to 0
    base = [(7, 8), (7, 9)]
    inc = [(0, 9)]
    delta, got, want = _run(base, inc)
    assert got == want
    rows = {(r["kind"], r["node"], r["cluster_id"]) for _, r in delta.iterrows()}
    assert ("remap", 7, 0) in rows and ("assign", 0, 0) in rows


def test_duplicate_saturated_increment():
    # the same increment edge repeated 500x in both orientations must not
    # blow up the contracted graph or change the result
    base = [(1, 2), (10, 11)]
    inc = ([(2, 10)] * 250) + ([(10, 2)] * 250)
    delta, got, want = _run(base, inc)
    assert got == want
    assert len(delta) == len(delta.drop_duplicates())


def test_increment_inside_one_cluster_is_noop():
    base = [(1, 2), (2, 3)]
    inc = [(1, 3), (3, 2)]  # already same cluster -> contraction self-edges
    delta, got, want = _run(base, inc)
    assert got == want
    assert len(delta) == 0


def test_baseline_singletons_and_fresh_components():
    # node 42 exists in the corpus but was a baseline singleton (absent from
    # the label table); increment links it to a fresh pair of new nodes
    base = [(1, 2)]
    inc = [(42, 50), (50, 51), (60, 61)]
    delta, got, want = _run(base, inc)
    assert got == want
    assert delta["kind"].eq("assign").all()
    assert want[51] == 42 and want[61] == 60


def test_random_graph_matches_union_find():
    rng = np.random.default_rng(1234)
    nodes = rng.integers(0, 400, size=(300, 2))
    edges = [(int(a), int(b)) for a, b in nodes if a != b]
    base, inc = edges[:150], edges[150:]
    _, got, want = _run(base, inc)
    assert got == want


def test_empty_increment():
    base = [(1, 2)]
    labels = _labels_ds(_union_find(base))
    delta = cluster.incremental_connected_components(_pairs([]), labels)
    assert delta.count() == 0
    updated = cluster.apply_incremental_cc(labels, delta).to_pandas()
    assert dict(zip(updated["doc_id"], updated["cluster_id"])) == _union_find(base)


def test_chain_of_increments_is_stable():
    # three successive increments applied to a rolling label table must end
    # at the same state as one full recompute — the multi-day crawl shape
    base = [(100, 101), (200, 201), (300, 301)]
    increments = [
        [(101, 201)],            # day 1: merge clusters 100 and 200
        [(5, 300)],              # day 2: new small-id node steals rep 300
        [(301, 100), (400, 401)],  # day 3: merge everything + fresh pair
    ]
    labels = _union_find(base)
    all_edges = list(base)
    for inc in increments:
        delta = cluster.incremental_connected_components(
            _pairs(inc), _labels_ds(labels))
        updated = cluster.apply_incremental_cc(_labels_ds(labels), delta).to_pandas()
        labels = dict(zip(updated["doc_id"], updated["cluster_id"]))
        all_edges += inc
        assert labels == _union_find(all_edges)


def test_huge_ids_survive_exactly():
    # ids beyond 2^53: any float64 round-trip in the lookup/fold paths
    # would silently corrupt them (map().fillna() routes through NaN) —
    # the engine must keep them bit-exact
    B = 1 << 60
    base = [(B + 1, B + 2), (B + 10, B + 11)]
    inc = [(B + 2, B + 10), (B + 3, B + 1)]
    delta, got, want = _run(base, inc)
    assert got == want
    assert all(n > (1 << 53) for n in got)


def test_string_ids_generic():
    # the op is id-type generic: string doc ids flow through contraction,
    # CC, classification and fold-back with lexicographic min-member ids
    def spairs(edges):
        return ray.data.from_arrow(pa.table({
            "doc_a": pa.array([a for a, _ in edges], pa.string()),
            "doc_b": pa.array([b for _, b in edges], pa.string())}))

    base_labels = ray.data.from_arrow(pa.table({
        "doc_id": pa.array(["d01", "d02", "d07", "d08"], pa.string()),
        "cluster_id": pa.array(["d01", "d01", "d07", "d07"], pa.string())}))
    inc = [("d02", "d08"), ("d00", "d01"), ("z99", "d07")]
    delta = cluster.incremental_connected_components(
        spairs(inc), base_labels).to_pandas()
    rows = {(r["kind"], r["node"], r["cluster_id"]) for _, r in delta.iterrows()}
    assert rows == {("assign", "d00", "d00"), ("assign", "z99", "d00"),
                    ("remap", "d01", "d00"), ("remap", "d07", "d00")}
    upd = cluster.apply_incremental_cc(
        base_labels, cluster.incremental_connected_components(
            spairs(inc), base_labels)
    ).to_pandas()
    assert dict(zip(upd["doc_id"], upd["cluster_id"])) == {
        n: "d00" for n in ["d00", "d01", "d02", "d07", "d08", "z99"]}
