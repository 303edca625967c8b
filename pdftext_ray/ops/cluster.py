"""Connected components over near-dup pair tables → cluster ids.

Two plans:

* ``connected_components_local`` — union-find on the driver. Near-dup pair
  sets are sparse (≪ corpus size), so this is the right default when the
  pair table provably fits driver memory (ray_guide: "union-find on the
  driver only if the candidate set is provably small").
* ``connected_components_distributed`` — alternating large-star/small-star
  rounds (Kiveris et al., MapReduce CC): two co-partitioned vectorized
  passes per round whose output edge set never grows; converges in
  ~O(log diameter) rounds, finishes small graphs in one in-worker pass,
  and RAISES on non-convergence instead of emitting wrong labels. Right
  when the pair table itself is too large to collect.
"""

from __future__ import annotations


import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdftext_ray.ops import vec_matrix


def connected_components_local(pairs: ray.data.Dataset, a_col: str = "doc_a", b_col: str = "doc_b") -> pa.Table:
    """Union-find on the collected pair table. Output: (doc_id, cluster_id)
    with cluster_id = min member id; singleton nodes are omitted."""
    parent: dict = {}

    def find(x):
        root = x
        while parent.get(root, root) != root:
            root = parent[root]
        while parent.get(x, x) != x:
            parent[x], x = root, parent[x]
        return root

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            # min id wins as the root → cluster_id = min member
            lo, hi = (ra, rb) if ra <= rb else (rb, ra)
            parent[hi] = lo
            parent.setdefault(lo, lo)

    for batch in pairs.select_columns([a_col, b_col]).iter_batches(batch_format="pyarrow"):
        for a, b in zip(batch.column(a_col).to_pylist(), batch.column(b_col).to_pylist()):
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            union(a, b)

    nodes = sorted(parent)
    return pa.table({"doc_id": nodes, "cluster_id": [find(n) for n in nodes]})


def _edge_fingerprint(ds: ray.data.Dataset) -> int:
    """Order-insensitive content hash of an edge table (convergence
    PRE-FILTER — a fingerprint match is confirmed by the exact
    :func:`_edge_sets_equal` pass before the loop declares convergence, so
    a hash-sum collision can at worst cost one extra comparison, never an
    early stop; round-4 ADVICE) — a map_batches partial + tiny collect, no
    join. Per-row hashes come from pandas' vectorized siphash
    (deterministic for a fixed key across processes) and are combined by
    wrapping uint64 sums, which are insensitive to row order AND block
    partitioning; the probe only runs on multi-million-row edge sets (the
    distributed CC rounds), so a per-row Python loop here would cost
    seconds per round."""

    def partial(batch: pa.Table) -> pa.Table:
        h = pd.util.hash_pandas_object(
            pd.DataFrame({
                "a": batch.column("node").to_pandas(),
                "b": batch.column("peer").to_pandas(),
            }),
            index=False,
        ).to_numpy()
        with np.errstate(over="ignore"):
            total = int(np.sum(h, dtype=np.uint64))
        return pa.table({"h": pa.array([total], pa.uint64())})

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    return sum(int(r["h"]) for r in parts) % (1 << 64)


def _edge_sets_equal(ds_a: ray.data.Dataset, ds_b: ray.data.Dataset, parts: int) -> bool:
    """EXACT distributed set equality of two (node, peer) edge tables: both
    sides hash-partition on node (copies of an edge co-locate), then each
    partition compares its two sorted deduped frames. One co-partitioned
    shuffle + a per-partition boolean collect — run once per CC run, only
    after the cheap fingerprint already matched. Both tables are
    materialized, so their schema is free."""
    from pdftext_ray.ops.exchange import by_key

    schema = ds_b.schema().base_schema

    def canon(e: pd.DataFrame) -> pd.DataFrame:
        return e.drop_duplicates().sort_values(["node", "peer"]).reset_index(drop=True)

    def cmp(g: dict) -> pa.Table:
        return pa.table({"eq": pa.array([bool(canon(g["a"]).equals(canon(g["b"])))], pa.bool_())})

    rows = by_key({"a": (ds_a, "node", schema), "b": (ds_b, "node", schema)}, cmp, parts).take_all()
    return all(r["eq"] for r in rows)


def _large_star_frame(g: pd.DataFrame) -> pd.DataFrame:
    """Large-star pass over a bidirectional (node, peer) frame: every node
    connects its LARGER neighbors to the minimum of its closed neighborhood.
    Directed (a, b) output; |output| ≤ |undirected input edges|."""
    mins = g.groupby("node")["peer"].min()
    m = np.minimum(mins.values, mins.index.values)
    mcol = g["node"].map(pd.Series(m, index=mins.index)).values
    keep = g["peer"].values > g["node"].values
    out = pd.DataFrame({"a": mcol[keep], "b": g["peer"].values[keep]})
    return out[out["a"] != out["b"]].drop_duplicates()


def _small_star_frame(g: pd.DataFrame) -> pd.DataFrame:
    """Small-star pass: each edge directed larger→smaller is assigned to its
    larger endpoint; that node connects its smaller neighbors (and itself)
    to their minimum. Directed (a, b) output, never larger than the input."""
    e = g[g["peer"] < g["node"]]
    if e.empty:
        return pd.DataFrame({"a": g["node"].iloc[:0], "b": g["peer"].iloc[:0]})
    mins = e.groupby("node")["peer"].min()
    mcol = e["node"].map(pd.Series(mins.values, index=mins.index)).values
    out = pd.concat([
        pd.DataFrame({"a": mcol, "b": e["peer"].values}),
        pd.DataFrame({"a": mins.values, "b": mins.index.values}),
    ])
    return out[out["a"] != out["b"]].drop_duplicates()


def _undirect(e: pd.DataFrame) -> pd.DataFrame:
    return pd.DataFrame({
        "node": np.concatenate([e["a"].values, e["b"].values]),
        "peer": np.concatenate([e["b"].values, e["a"].values]),
    }).drop_duplicates()


def _local_converge(edges: pd.DataFrame, max_rounds: int) -> pd.DataFrame:
    """Alternate large-star / small-star over a whole (small) undirected
    (node, peer) edge frame in-process until the edge set stops changing —
    no per-round shuffles. Raises after ``max_rounds`` (invariant 15)."""
    g = edges[["node", "peer"]].drop_duplicates()
    if g.empty:
        return g
    prev = None
    for _ in range(max_rounds):
        g = _undirect(_large_star_frame(g))
        e2 = _small_star_frame(g)
        g = _undirect(e2)
        cur = e2.sort_values(["a", "b"]).reset_index(drop=True)
        if prev is not None and cur.equals(prev):
            return g
        prev = cur
    raise RuntimeError(
        f"connected_components: no convergence in {max_rounds} local rounds"
    )


def connected_components_distributed(
    pairs: ray.data.Dataset,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    max_rounds: int = 64,
    local_threshold: int = 5_000_000,
) -> ray.data.Dataset:
    """Alternating large-star / small-star connected components (the
    MapReduce CC algorithm of Kiveris et al., "Connected Components in
    MapReduce and Beyond") — each round is two co-partitioned vectorized
    passes whose output edge set provably never grows.

    Why not plain star contraction (the previous plan): its per-round
    ``(min, peer)`` emission EXPLODES on long chains — a 5k-node path
    transiently reached 15.8M edges and needed 14 rounds, silently
    exceeding the old 12-round cap and emitting WRONG labels (904 clusters
    for one component). Here every pass's output is bounded by its input,
    chains converge in ~log2(diameter) rounds, and running out of rounds
    RAISES instead of mislabeling.

    Scale shape: rounds run distributed (bucket shuffle on hash(node),
    vectorized pandas per partition — never per-distinct-node map_groups)
    only while the edge count — free metadata off the materialized
    previous round — exceeds ``local_threshold``; at or below it the graph
    collapses to ONE partition and converges in a single in-worker loop.
    Near-dup pair graphs are sparse, so the common case is one shuffle
    total. Output: (doc_id, cluster_id = min member id), singletons
    omitted.
    """
    from pdftext_ray.ops import default_num_partitions, from_pandas_clean
    from pdftext_ray.ops.exchange import by_key

    def to_edges(batch: pa.Table) -> pa.Table:
        a = batch.column(a_col).combine_chunks()
        b = batch.column(b_col).combine_chunks()
        return pa.table({"node": pa.concat_arrays([a, b]), "peer": pa.concat_arrays([b, a])})

    def large_part(g: pd.DataFrame) -> pd.DataFrame:
        # partition key is a function of node, so each node's FULL adjacency
        # is co-located; cross-partition duplicate emissions are deduped at
        # the next pass's entry (they co-locate by node again)
        return _undirect(_large_star_frame(g[["node", "peer"]].drop_duplicates()))

    def small_part(g: pd.DataFrame) -> pd.DataFrame:
        return _undirect(_small_star_frame(g[["node", "peer"]].drop_duplicates()))

    edges = pairs.map_batches(to_edges, batch_format="pyarrow").materialize()
    prev_fp = None
    prev_edges = None
    converged = False
    for _ in range(max_rounds):
        n_edges = edges.count()
        if n_edges == 0:
            converged = True
            break
        if n_edges <= local_threshold:
            edges = (
                edges.repartition(1)
                .map_batches(lambda df: from_pandas_clean(_local_converge(df, max_rounds)),
                             batch_format="pandas", batch_size=None)
                .materialize()
            )
            converged = True
            break
        parts = default_num_partitions(rows=n_edges)
        mid = by_key((edges, "node"), large_part, parts)
        edges = by_key((mid, "node"), small_part, parts).materialize()
        # fingerprint match is only a pre-filter: convergence is declared on
        # EXACT edge-set equality, so a 2^-64 hash-sum collision costs one
        # wasted comparison, never a wrong early stop (round-4 ADVICE —
        # invariant 15 demands labels are never emitted unconverged)
        fp = _edge_fingerprint(edges)
        if fp == prev_fp and _edge_sets_equal(prev_edges, edges, parts):
            converged = True
            break
        prev_fp = fp
        prev_edges = edges
    if not converged:
        raise RuntimeError(
            f"connected_components: no convergence in {max_rounds} rounds "
            f"({edges.count()} edges in flight) — raise max_rounds; labels "
            "are never emitted from an unconverged state"
        )

    def emit(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = batch.filter(pc.greater(batch.column("peer"), batch.column("node")))
        return pa.table({"doc_id": keep.column("peer"), "cluster_id": keep.column("node")})

    labels = edges.map_batches(emit, batch_format="pyarrow")
    roots = labels.map_batches(
        lambda t: pa.table({"doc_id": t.column("cluster_id").unique(),
                            "cluster_id": t.column("cluster_id").unique()}),
        batch_format="pyarrow",
    )
    # final label dedup: distinct-key count here is #docs-in-clusters, which
    # is unbounded at web scale — route through the few-partition vectorized
    # aggregate (invariant 9), not Ray's per-distinct-key Min. The converged
    # edge set is materialized, so its count is free metadata; label rows are
    # bounded by it, and sizing the shuffle from it keeps small graphs on a
    # handful of partitions (each keyed-shuffle partition carries ~0.5-1 s of
    # fixed cost — see default_num_partitions).
    from pdftext_ray.ops.relational import hash_grouped_agg

    return hash_grouped_agg(
        labels.union(roots), "doc_id", {"cluster_id": ("cluster_id", "min")},
        n_parts=default_num_partitions(rows=edges.count()),
    )


def incremental_connected_components(
    new_pairs: ray.data.Dataset,
    baseline_labels: ray.data.Dataset,
    a_col: str = "doc_a",
    b_col: str = "doc_b",
    node_col: str = "doc_id",
    label_col: str = "cluster_id",
    max_rounds: int = 64,
) -> ray.data.Dataset:
    """Assign an increment's near-dup pairs to PERSISTED cluster ids without
    recomputing components over the baseline graph — the crawl-increment
    analog of :func:`connected_components_distributed`, completing the
    incremental family (exact hashes / MinHash sigs / embeddings / cluster
    stability). The keep-first stability contract extends the reference's
    keep-first ordering rule (`/root/reference/pdftext/pdf/chars.py:102-113`)
    across runs: a merged cluster keeps the smallest id involved.

    Inputs: ``baseline_labels`` is a persisted (node, cluster_id) table from
    a prior CC run (cluster_id = min member id; the rep row (r, r) is
    present — both are invariants of ``connected_components_distributed``'s
    output); ``new_pairs`` is the increment's pair table, whose endpoints
    may be baseline nodes (labeled or singleton) or new nodes.

    Plan — the baseline GRAPH is never touched, only its label table, and
    that table is scanned, never exchanged: the increment's endpoint set is
    broadcast and ONE scan filters the label table down to the matching
    rows. Contraction, convergence and rep classification then run in one
    task (:func:`probe.in_one_task`) over the increment's pairs and the
    scan's output. Its memory bound: at most two (node, label) rows per
    increment pair, and the contracted graph's edges (at most two per
    pair). The contracted graph is increment-sized, so it always converges
    in that task.

    Each endpoint is contracted to its baseline cluster id if labeled, else
    itself; self-edges (pairs inside one existing cluster) drop at
    contraction — they cannot change any label. The alternating-star loop
    (``_local_converge``, shared with
    :func:`connected_components_distributed`) then runs on the CONTRACTED
    graph only (reps + new nodes + baseline singletons — increment-sized,
    not corpus-sized), raising on non-convergence (invariant 15). Final
    labels classify as ``remap`` rows (old cluster id -> new id, emitted
    only when changed) for contracted ids that are baseline reps, ``assign``
    rows otherwise.

    Output: (kind: 'assign'|'remap', node, cluster_id). Applying it via
    :func:`apply_incremental_cc` reproduces, exactly, a from-scratch CC over
    baseline-edges ∪ increment-edges: contraction preserves min-member ids
    because a rep IS its cluster's min member, so the min over contracted
    component ids equals the min over all merged members.
    """
    import pyarrow.compute as pc

    from pdftext_ray.ops import probe

    # the increment is the small side by this op's contract — materialize
    # the pairs once so the schema, the count, the endpoint assembly and
    # the task share one execution of the lineage
    new_pairs = new_pairs.materialize()
    pair_schema = new_pairs.schema()
    if pair_schema is not None:
        id_type = pair_schema.base_schema.field(a_col).type
    else:
        # a zero-block pairs dataset carries no schema — type the (empty)
        # delta from the baseline label table instead
        id_type = baseline_labels.schema().base_schema.field(node_col).type
    delta_schema = pa.schema([("kind", pa.string()), ("node", id_type), ("cluster_id", id_type)])
    if new_pairs.count() == 0:
        return ray.data.from_arrow(delta_schema.empty_table())

    def column(blocks, name: str) -> np.ndarray:
        if not blocks:
            return pa.array([], id_type).to_numpy(zero_copy_only=False)
        return pa.concat_arrays([pc.cast(b.column(name).combine_chunks(), id_type)
                                 for b in blocks]).to_numpy(zero_copy_only=False)

    ep_ref = probe.key_set(new_pairs, lambda t: np.concatenate(
        [column([t], a_col), column([t], b_col)]))

    def filter_labels(t: pa.Table) -> pa.Table:
        """The one corpus-sized scan: emit only baseline rows whose node is
        an increment endpoint (≤ 2·|increment| rows total)."""
        node = pc.cast(t.column(node_col).combine_chunks(), id_type)
        lab = pc.cast(t.column(label_col).combine_chunks(), id_type)
        mask = probe.member_sorted(node.to_numpy(zero_copy_only=False), ray.get(ep_ref))
        return pa.table({"node": node.filter(pa.array(mask)), "lab": lab.filter(pa.array(mask))})

    def delta(pair_blocks, label_blocks) -> pa.Table:
        # defensive uniqueness (baseline is unique per node by contract),
        # then key-sorted for the searchsorted lookup
        keys, first = np.unique(column(label_blocks, "node"), return_index=True)
        vals = column(label_blocks, "lab")[first]
        # contraction: substitute each endpoint by its baseline label (hits
        # only, on the raw array — invariant 16), canonicalize lo/hi and
        # drop self-edges
        a = probe.substitute_sorted(column(pair_blocks, a_col), keys, vals)
        b = probe.substitute_sorted(column(pair_blocks, b_col), keys, vals)
        lo, hi = np.where(a > b, b, a), np.where(a > b, a, b)
        keep = lo != hi
        g = _local_converge(pd.DataFrame({
            "node": np.concatenate([lo[keep], hi[keep]]),
            "peer": np.concatenate([hi[keep], lo[keep]]),
        }), max_rounds)
        if g.empty:
            return delta_schema.empty_table()
        # converged stars → (node, min member): leaves point at their root,
        # roots label themselves
        e = g[g["peer"] > g["node"]]
        roots = e["node"].unique()
        final = pd.DataFrame({
            "doc_id": np.concatenate([e["peer"].to_numpy(), roots]),
            "cluster_id": np.concatenate([e["node"].to_numpy(), roots]),
        }).groupby("doc_id", as_index=False)["cluster_id"].min()
        # the only contracted ids that can be baseline reps are looked-up
        # label VALUES (an unmapped endpoint equal to a rep id is
        # impossible: the rep row (r, r) is in the label table, so it would
        # have matched); a rep whose component min is still itself keeps
        # its id
        node_np, val_np = final["doc_id"].to_numpy(), final["cluster_id"].to_numpy()
        is_rep = probe.member_sorted(node_np, np.unique(vals))
        keep = ~(is_rep & (node_np == val_np))
        return pa.table({
            "kind": pa.array(np.where(is_rep[keep], "remap", "assign"), pa.string()),
            "node": pa.array(node_np[keep], id_type),
            "cluster_id": pa.array(val_np[keep], id_type),
        })

    return probe.in_one_task(
        delta, new_pairs, baseline_labels.map_batches(filter_labels, batch_format="pyarrow"))


def apply_incremental_cc(
    baseline_labels: ray.data.Dataset,
    delta: ray.data.Dataset,
    node_col: str = "doc_id",
    label_col: str = "cluster_id",
) -> ray.data.Dataset:
    """Fold an :func:`incremental_connected_components` delta into the
    persisted label table → the updated full (node, cluster_id) table,
    equal by construction to a from-scratch CC over baseline ∪ increment
    edges (the probe suite verifies this against union-find on adversarial
    topologies).

    Plan: the delta (increment-sized by construction) is collected once,
    its remap rows are broadcast, and the corpus-sized label table is
    rewritten in ONE shuffle-free vectorized pass; the assign rows are
    unioned at the end. State on the driver: the delta, one row per node
    of the increment's contracted graph."""
    import pyarrow.compute as pc

    from pdftext_ray.ops import probe

    id_type = baseline_labels.schema().base_schema.field(node_col).type
    dt = probe.collect(delta, pa.schema([
        ("kind", pa.string()), ("node", id_type), ("cluster_id", id_type)]))
    kind = np.asarray(dt.column("kind").to_pylist())
    node = pc.cast(dt.column("node").combine_chunks(), id_type).to_numpy(zero_copy_only=False)
    cid = pc.cast(dt.column("cluster_id").combine_chunks(), id_type).to_numpy(zero_copy_only=False)
    is_remap = kind == "remap"
    rdf = (pd.DataFrame({"k": node[is_remap], "v": cid[is_remap]})
           .drop_duplicates("k").sort_values("k"))
    remap_ref = ray.put((rdf["k"].to_numpy(), rdf["v"].to_numpy()))

    def sub_labels(t: pa.Table) -> pa.Table:
        """Label rewrite: substitute only the hit rows on the raw label
        array via the sorted broadcast remap table (invariant 16 — never
        map().fillna(), which routes int64 ids through float64 NaN)."""
        keys, vals = ray.get(remap_ref)
        nodes = pc.cast(t.column(node_col).combine_chunks(), id_type)
        lab_np = probe.substitute_sorted(
            pc.cast(t.column(label_col).combine_chunks(), id_type).to_numpy(zero_copy_only=False),
            keys, vals)
        return pa.table({node_col: nodes,
                         label_col: pa.array(lab_np, id_type)})

    out = baseline_labels.map_batches(sub_labels, batch_format="pyarrow")
    if (~is_remap).any():
        out = out.union(ray.data.from_arrow(pa.table({
            node_col: pa.array(node[~is_remap], id_type),
            label_col: pa.array(cid[~is_remap], id_type),
        })))
    return out


def kmeans_assign(
    ds: ray.data.Dataset,
    k: int = 8,
    iters: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    keep_vec: bool = False,
) -> ray.data.Dataset:
    """Distributed Lloyd k-means over an embedding column → (id, cluster,
    dist). The corpus-clustering step of embedding-based data curation
    (cluster-balanced sampling, semantic dedup).

    Plan: the ONLY state is the k×d centroid matrix — driver-scale by
    definition. Each iteration is one streaming pass: every batch assigns
    its vectors (one matmul) and emits k partial rows (cluster, sum-vector,
    count); the driver folds the tiny (k × n_blocks) partial table and
    updates centroids. No shuffle at all, and the per-pass driver traffic is
    k·d floats per block regardless of data size. Input is materialized once
    up front (iterative algorithms re-read their input every pass otherwise;
    at cluster scale this pins the vectors in the object store where
    repeated passes are zero-copy).

    Determinism contract (gate-compared vs an independent scalar golden):
    init = the k lowest-id vectors; centroids are rounded to 6 decimals
    after every update, so float-summation order across blocks cannot leak
    into the assignment sequence (jitter ~1e-15 vs boundary spacing 1e-6);
    empty clusters keep their previous centroid; ``dist`` is the direct
    euclidean norm to the final centroid, rounded to 6.
    """
    import ray

    from pdftext_ray.ops import round_half_away

    ds = ds.select_columns([id_col, vec_col]).materialize()

    # init: k lowest-id vectors — local head-k per batch, tiny driver merge
    def local_lowk(batch: pa.Table) -> pa.Table:
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return batch
        sel = np.argsort(ids)[:k]
        return batch.take(pa.array(np.sort(sel)))

    seed_rows = sorted(
        ds.map_batches(local_lowk, batch_format="pyarrow").take_all(),
        key=lambda r: r[id_col],
    )[:k]
    if len(seed_rows) < k:
        raise ValueError(f"kmeans needs >= k={k} rows, got {len(seed_rows)}")
    cents = round_half_away(
        np.asarray([r[vec_col] for r in seed_rows], dtype=np.float64), 6
    )

    for _ in range(iters):
        ref = ray.put(cents)

        def partial(batch: pa.Table) -> pa.Table:
            c = ray.get(ref)
            vecs = vec_matrix(batch.column(vec_col))
            if len(vecs) == 0:
                return pa.table({"cluster": pa.array([], pa.int64()),
                                 "vsum": pa.array([], pa.list_(pa.float64())),
                                 "n": pa.array([], pa.int64())})
            d2 = (vecs * vecs).sum(1)[:, None] - 2.0 * (vecs @ c.T) + (c * c).sum(1)[None, :]
            assign = np.argmin(d2, axis=1)
            sums = np.zeros_like(c)
            np.add.at(sums, assign, vecs)
            counts = np.bincount(assign, minlength=len(c)).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(len(c)), pa.int64()),
                "vsum": pa.array(list(sums), pa.list_(pa.float64())),
                "n": pa.array(counts, pa.int64()),
            })

        partials = ds.map_batches(partial, batch_format="pyarrow").take_all()
        sums = np.zeros_like(cents)
        counts = np.zeros(k, dtype=np.int64)
        for r in partials:
            sums[r["cluster"]] += np.asarray(r["vsum"], dtype=np.float64)
            counts[r["cluster"]] += r["n"]
        nonempty = counts > 0
        cents[nonempty] = sums[nonempty] / counts[nonempty, None]
        cents = round_half_away(cents, 6)

    final_ref = ray.put(cents)

    def assign_out(batch: pa.Table) -> pa.Table:
        c = ray.get(final_ref)
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            empty = {id_col: pa.array([], pa.int64()),
                     "cluster": pa.array([], pa.int64()),
                     "dist": pa.array([], pa.float64())}
            if keep_vec:
                empty[vec_col] = batch.column(vec_col)
            return pa.table(empty)
        vecs = vec_matrix(batch.column(vec_col))
        d2 = (vecs * vecs).sum(1)[:, None] - 2.0 * (vecs @ c.T) + (c * c).sum(1)[None, :]
        assign = np.argmin(d2, axis=1)
        dist = round_half_away(np.linalg.norm(vecs - c[assign], axis=1), 6)
        cols = {
            id_col: pa.array(ids.astype(np.int64), pa.int64()),
            "cluster": pa.array(assign.astype(np.int64), pa.int64()),
            "dist": pa.array(dist, pa.float64()),
        }
        if keep_vec:
            cols[vec_col] = batch.column(vec_col)
        return pa.table(cols)

    return ds.map_batches(assign_out, batch_format="pyarrow")


def cluster_balanced_sample(
    ds: ray.data.Dataset,
    per_cluster: int,
    k: int = 8,
    iters: int = 5,
    id_col: str = "vec_id",
    vec_col: str = "embedding",
    seed: int = 17,
) -> ray.data.Dataset:
    """Cluster-balanced embedding curation: k-means the corpus, then keep at
    most ``per_cluster`` rows PER CLUSTER — the diversity-preserving
    subsample behind SemDeDup-style pipelines (dominant modes stop drowning
    out rare ones; every cluster contributes equally).

    Selection within a cluster is the deterministic bottom-``per_cluster``
    by (hash32(id), id) — the same layout-independent KMV draw as
    ops/stats.sample_quantiles, so the kept set is a pure function of the
    id set and the (gate-verified) kmeans assignment. Plan: per-block local
    head per cluster (≤ k·per_cluster rows leave a block) → one k-key
    groupby → vectorized per-cluster head. Output: (id, cluster).
    """
    import pandas as pd

    from pdftext_ray.ops import from_pandas_clean
    from pdftext_ray.ops.sampling import _key_hash32

    if per_cluster <= 0:
        raise ValueError(f"per_cluster must be positive, got {per_cluster}")

    labeled = kmeans_assign(ds, k=k, iters=iters, id_col=id_col, vec_col=vec_col)

    def local_head(t: pa.Table) -> pa.Table:
        ids = t.column(id_col).combine_chunks()
        h = _key_hash32(ids, seed)
        df = pd.DataFrame({
            id_col: np.asarray(ids),
            "cluster": np.asarray(t.column("cluster").combine_chunks()),
            "_h": h,
        })
        kept = df.sort_values(["_h", id_col], kind="mergesort").groupby(
            "cluster", sort=False
        ).head(per_cluster)
        return from_pandas_clean(kept)

    def final_head(g: pd.DataFrame) -> pa.Table:
        kept = g.sort_values(["_h", id_col], kind="mergesort").head(per_cluster)
        return from_pandas_clean(kept[[id_col, "cluster"]])

    return (
        labeled.map_batches(local_head, batch_format="pyarrow")
        .groupby("cluster")
        .map_groups(final_head, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# Distributed PCA (top principal component from exact integer moments)
# ---------------------------------------------------------------------------

def pca_top_component(
    ds: ray.data.Dataset,
    vec_col: str = "embedding",
    scale: int = 10**6,
    n_iter: int = 30,
) -> "pa.Table":
    """Top principal component of an embedding column, layout-independent
    to the last bit: each block quantizes vectors to int64 (``round(x·
    scale)``) and emits EXACT integer partials (n, Σx d-vector, ΣxᵀX d×d
    upper triangle); the driver combines in arbitrary-precision Python
    ints, forms the scaled covariance ``C = n·Σxx − Σx·Σxᵀ`` exactly, and
    only then converts to float64 ONCE (correctly rounded per entry).
    Power iteration (fixed ``n_iter``, all-ones start, np.linalg.norm
    normalization, sign pinned to the first nonzero component positive)
    runs driver-side on the d×d matrix — O(d²) work, the k-means-centroid
    bounded-collect contract. OPENBLAS_NUM_THREADS=1 (set at package
    import) keeps the matvec deterministic.

    Int64 partial safety: an entry of the block partial is Σ_rows xᵢ·xⱼ,
    bounded by rows·max(|x·scale|)², so exactness requires
    ``rows · max(|xᵢ|)² < 2⁶³`` — e.g. max|x|·scale ≤ 2²³ allows 64k-row
    blocks with 2⁶²-headroom (a SINGLE product of two ~2³¹ values is
    already ~2⁶², so large components overflow at 2 rows). ``partial()``
    asserts this bound at runtime (numpy wraps silently otherwise); the
    cross-block combine is overflow-free (Python ints).

    Returns a d-row pa.Table: (dim_idx, weight, eigenvalue, n_rows).
    """
    import pyarrow as pa

    def partial(t: pa.Table) -> pa.Table:
        from pdftext_ray.ops import round_half_away

        x = vec_matrix(t.column(vec_col))
        xi = np.asarray(round_half_away(x * scale, 0), dtype=np.int64)
        # runtime overflow guard (ADVICE r3): an int64 partial entry is
        # Σ_rows xi_i·xi_j ≤ rows·max|xi|²; numpy wraps silently past 2⁶³,
        # producing wrong PCA with no error — raise instead, with remedies
        if len(xi):
            m = float(np.abs(xi).max())
            if m * m * len(xi) >= float(2**62):
                raise ValueError(
                    f"pca_top_component: block of {len(xi)} rows with "
                    f"max|x·scale|={m:.3g} would overflow the int64 partial "
                    f"(rows·max² ≥ 2^62); lower scale= (now {scale}) or "
                    "reduce block size"
                )
        s = xi.sum(axis=0)
        ss = xi.T @ xi  # int64 matmul — exact within the asserted bound
        return pa.table({
            "n": pa.array([len(xi)], pa.int64()),
            "s": pa.array([s.tobytes()], pa.binary()),
            "ss": pa.array([ss.tobytes()], pa.binary()),
            "d": pa.array([xi.shape[1]], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
    if not parts:
        raise ValueError("pca_top_component over an empty dataset")
    d = int(parts[0]["d"])
    n = 0
    s_tot = [0] * d
    ss_tot = [[0] * d for _ in range(d)]
    for prt in parts:
        n += int(prt["n"])
        s_arr = np.frombuffer(prt["s"], dtype=np.int64)
        ss_arr = np.frombuffer(prt["ss"], dtype=np.int64).reshape(d, d)
        for i in range(d):
            s_tot[i] += int(s_arr[i])
            row = ss_arr[i]
            ti = ss_tot[i]
            for j in range(d):
                ti[j] += int(row[j])
    # exact scaled covariance: C_ij = n·Σxx_ij − Σx_i·Σx_j  (Python ints)
    c = np.empty((d, d), dtype=np.float64)
    for i in range(d):
        for j in range(d):
            c[i, j] = float(n * ss_tot[i][j] - s_tot[i] * s_tot[j])
    v = np.ones(d, dtype=np.float64)
    v /= np.linalg.norm(v)
    for _ in range(n_iter):
        v = c @ v
        nv = np.linalg.norm(v)
        if nv == 0.0:
            raise ValueError("pca_top_component: zero covariance matrix")
        v /= nv
    nz = np.flatnonzero(np.abs(v) > 1e-12)
    if len(nz) and v[nz[0]] < 0:
        v = -v
    eig = float(v @ (c @ v))
    # report in the ORIGINAL units: covariance was scaled by n²·scale²
    from pdftext_ray.ops import round_half_away

    eig_unit = float(round_half_away(eig / (float(n) * float(n) * scale * scale), 6))
    comp = [float(round_half_away(x, 6)) for x in v]
    # exploded rows (dim_idx, weight) — list-column comparisons are
    # dtype-convention fragile across engines; rows are not
    return pa.table({
        "dim_idx": pa.array(list(range(d)), pa.int64()),
        "weight": pa.array(comp, pa.float64()),
        "eigenvalue": pa.array([eig_unit] * d, pa.float64()),
        "n_rows": pa.array([n] * d, pa.int64()),
    })
