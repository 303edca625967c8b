"""Graph operators over int64 edge tables — PageRank power iteration.

The reference has no graph code; this is an engine-side addition for
link-graph corpus curation (domain authority weighting, crawl-frontier
prioritization — the PageRank use the original paper describes, Page &
Brin 1998).

Scale shape: edge dedup + out-degree annotation are ONE few-partition hash
shuffle on src (equal pairs share src, so src co-location suffices for
pair dedup); each power iteration is a stateless vectorized map over the
materialized edge table (rank vector broadcast ONCE per iteration via
``ray.put``) + a driver-side np.add.at merge of per-block partial
contribution vectors (≤ #nodes rows per block — no per-iteration
shuffle). The rank vector itself is a bounded driver-side collect —
#nodes entries, the same contract as k-means' k×dim centroid collect
(ops/cluster.py); a node set beyond driver memory needs the co-partitioned
rank-join variant (documented extension, not implemented).

Determinism: ALL rank arithmetic is int64 fixed point (units of
1/scale) — contributions are ``rank // outdeg``, damping is
``85·x // 100``, the dangling share is ``D // N``. Integer addition
commutes exactly, so the result is layout/batch-order independent by
construction (invariant 11); float accumulation would drift in the last
bits across layouts. The tiny mass leak from floor division is part of
the published contract (the golden replicates it bit-for-bit).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from pdftext_ray.ops import from_pandas_clean, round_half_away


def _dedup_edges_with_outdeg(
    edges: ray.data.Dataset, src: str, dst: str
) -> ray.data.Dataset:
    """Distinct (src, dst) pairs annotated with src's out-degree. One hash
    shuffle on src: equal pairs co-locate (they share src), so per-partition
    drop_duplicates is globally exact, and the out-degree is computable in
    the same pass (src's edges are all present)."""
    from pdftext_ray.ops.exchange import by_key

    def local(t: pa.Table) -> pa.Table:
        df = t.select([src, dst]).to_pandas().drop_duplicates()
        return from_pandas_clean(df)

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g[[src, dst]].drop_duplicates()
        g["outdeg"] = g.groupby(src)[dst].transform("size").astype("int64")
        return g

    return by_key((edges.map_batches(local, batch_format="pyarrow"), src), per_part)


def pagerank(
    edges: ray.data.Dataset,
    src: str = "src",
    dst: str = "dst",
    n_iter: int = 8,
    damping_pct: int = 85,
    scale: int = 10**12,
    mode: str = "auto",
    max_driver_nodes: int = 2_000_000,
) -> ray.data.Dataset:
    """Fixed-point PageRank over a directed int64 edge table.

    Per iteration (all int64):
      contrib(s→t) = rank[s] // outdeg[s]
      S[t]         = Σ contribs into t        (exact integer sums)
      dangling dd  = (Σ rank over outdeg-0 nodes) // N
      rank'[v]     = (100−d)·scale // (100·N) + d·(S[v] + dd) // 100

    Headroom: scale=10¹² keeps every term < 8.5·10¹³ ≪ 2⁶³, and partial
    sums < 2⁵³ so even a float64 staging copy would be exact.

    Two physical plans, BIT-IDENTICAL results (integer addition commutes
    exactly, so layout cannot change a single rank_fp):

    - ``mode="driver"``: rank vector on the driver, per-block contribution
      partials merged with one np.add.at per iteration, zero per-iteration
      shuffles. Fastest when #nodes fits driver memory (entity graphs).
    - ``mode="dataset"``: ranks stay a Dataset; each iteration is two
      few-partition co-partitioned exchanges (edges⋈ranks on hash(src),
      then contrib partials⋈nodes on hash(dst)) — the 100 TB web-graph
      path, #nodes bounded by cluster memory, not driver RAM.
    - ``mode="auto"`` (default): driver plan up to ``max_driver_nodes``
      nodes, dataset plan beyond (the embedding_pairs_bruteforce.max_rows
      convention: the bounded-collect plan never engages silently past
      its contract).

    Output: (node, rank_fp int64, rank double rounded to 10) — rank_fp is
    the exact comparable; rank is the human-readable value.
    """
    if mode not in ("auto", "driver", "dataset"):
        raise ValueError(f"mode must be auto|driver|dataset, got {mode!r}")
    deduped = _dedup_edges_with_outdeg(edges, src, dst).materialize()

    # node universe (node, outdeg) — stays a Dataset; only the count is
    # collected before choosing a plan
    from pdftext_ray.ops.relational import hash_grouped_agg

    def node_partial(t: pa.Table) -> pa.Table:
        # src rows carry their (globally final) outdeg, dst rows 0 — a MAX
        # merge yields the node universe AND per-node out-degree in the one
        # pass (dangling nodes never appear as src, so their max stays 0)
        s_arr = t.column(src).to_numpy(zero_copy_only=False)
        d_arr = t.column(dst).to_numpy(zero_copy_only=False)
        od_arr = t.column("outdeg").to_numpy(zero_copy_only=False)
        node = np.concatenate([s_arr, d_arr])
        deg = np.concatenate([od_arr, np.zeros(len(d_arr), np.int64)])
        df = pd.DataFrame({"node": node, "outdeg": deg}).groupby(
            "node", as_index=False
        )["outdeg"].max()
        return from_pandas_clean(df)

    empty_out = pa.table({
        "node": pa.array([], pa.int64()),
        "rank_fp": pa.array([], pa.int64()),
        "rank": pa.array([], pa.float64()),
    })
    nodes_ds = hash_grouped_agg(
        deduped.map_batches(node_partial, batch_format="pyarrow"),
        "node",
        {"outdeg": ("outdeg", "max")},
    ).materialize()
    n = nodes_ds.count()
    if n == 0 or "node" not in (nodes_ds.schema().names or []):
        return ray.data.from_arrow(empty_out)

    if mode == "dataset" or (mode == "auto" and n > max_driver_nodes):
        return _pagerank_dataset(
            deduped, nodes_ds, src, dst, n, n_iter, damping_pct, scale
        )
    if mode == "driver" and n > max_driver_nodes:
        raise ValueError(
            f"pagerank: {n} nodes exceeds max_driver_nodes={max_driver_nodes} "
            "for mode='driver' (the rank vector is a driver-side collect); "
            "use mode='dataset' (identical fixed-point results) or raise "
            "max_driver_nodes explicitly"
        )

    nodes_df = nodes_ds.to_pandas()
    order = np.argsort(nodes_df["node"].to_numpy())
    node_ids = nodes_df["node"].to_numpy().astype(np.int64)[order]
    outdeg = nodes_df["outdeg"].to_numpy().astype(np.int64)[order]
    ranks = np.full(n, scale // n, dtype=np.int64)

    base = (100 - damping_pct) * scale // (100 * n)
    # node_ids never change: broadcast ONCE; only the rank vector re-ships
    ids_ref = ray.put(node_ids)
    for _ in range(n_iter):
        ranks_ref = ray.put(ranks)

        def contrib(t: pa.Table) -> pa.Table:
            # per-block partial: contributions pre-summed by dst, emitted as
            # POSITIONS into the broadcast node vector, so the driver merge
            # is one np.add.at — no per-iteration shuffle (the collect is
            # ≤ #nodes rows per block, the op's bounded contract; k-means'
            # centroid partials use the same pattern, ops/cluster.py)
            ids, r = ray.get(ids_ref), ray.get(ranks_ref)
            s = t.column(src).to_numpy(zero_copy_only=False).astype(np.int64)
            d = t.column(dst).to_numpy(zero_copy_only=False).astype(np.int64)
            od = t.column("outdeg").to_numpy(zero_copy_only=False).astype(np.int64)
            c = r[np.searchsorted(ids, s)] // od
            didx = np.searchsorted(ids, d)
            u, inv = np.unique(didx, return_inverse=True)
            sums = np.zeros(len(u), dtype=np.int64)
            np.add.at(sums, inv, c)
            return pa.table({"pos": pa.array(u, pa.int64()),
                             "c": pa.array(sums, pa.int64())})

        s_vec = np.zeros(n, dtype=np.int64)
        for part in deduped.map_batches(
            contrib, batch_format="pyarrow"
        ).iter_batches(batch_format="pyarrow", batch_size=None):
            np.add.at(
                s_vec,
                part.column("pos").to_numpy(zero_copy_only=False),
                part.column("c").to_numpy(zero_copy_only=False),
            )
        dangling = int(ranks[outdeg == 0].sum())
        ranks = base + damping_pct * (s_vec + dangling // n) // 100

    out = pd.DataFrame({
        "node": node_ids,
        "rank_fp": ranks,
        "rank": round_half_away(ranks / scale, 10),
    })
    return ray.data.from_arrow(from_pandas_clean(out))


def _pagerank_dataset(
    deduped: ray.data.Dataset,
    nodes_ds: ray.data.Dataset,
    src: str,
    dst: str,
    n: int,
    n_iter: int,
    damping_pct: int,
    scale: int,
) -> ray.data.Dataset:
    """Dataset-resident power iteration: ranks live in a Dataset keyed by
    hash(node); the driver never holds more than one scalar (the dangling
    mass). Per iteration, two two-sided ``exchange.by_key`` passes (robust
    to empty partitions where Acero join is not):

      1. edges by h(src) with ranks by h(node) → per-partition rank lookup,
         contrib = rank[src] // outdeg, locally pre-summed by dst
         (combiner: emission is ≤ #distinct-dst-per-partition, not #edges).
      2. contrib partials by h(dst) with node rows by h(node) → exact S per
         node, rank' = base + d·(S + dd)//100 for EVERY node (no-inbound
         nodes get S=0).

    All arithmetic is the same int64 fixed point as the driver plan, so the
    two plans are bit-identical (integer sums commute)."""
    from pdftext_ray.ops.exchange import by_key

    base = (100 - damping_pct) * scale // (100 * n)
    r0 = scale // n
    i64 = pa.int64()
    edge_schema = pa.schema([(src, i64), (dst, i64), ("outdeg", i64)])
    rank_schema = pa.schema([("node", i64), ("outdeg", i64), ("rank_fp", i64)])
    contrib_schema = pa.schema([("node", i64), ("s", i64)])

    def init_ranks(t: pa.Table) -> pa.Table:
        return pa.table({
            "node": pc.cast(t.column("node").combine_chunks(), i64),
            "outdeg": pc.cast(t.column("outdeg").combine_chunks(), i64),
            "rank_fp": pa.array(np.full(len(t), r0, np.int64), i64),
        })

    ranks = nodes_ds.map_batches(init_ranks, batch_format="pyarrow").materialize()

    def contrib_part(g: dict):
        rk, eg = g["ranks"], g["edges"]
        if not len(eg) or not len(rk):
            return contrib_schema.empty_table()
        ra = rk["node"].to_numpy(np.int64)
        rv = rk["rank_fp"].to_numpy(np.int64)
        o = np.argsort(ra)
        ra, rv = ra[o], rv[o]
        c = rv[np.searchsorted(ra, eg[src].to_numpy(np.int64))] // eg["outdeg"].to_numpy(np.int64)
        out = (
            pd.DataFrame({"node": eg[dst].to_numpy(np.int64), "s": c})
            .groupby("node", as_index=False)["s"].sum()
        )
        out["s"] = out["s"].astype("int64")
        return out

    for _ in range(n_iter):
        def dang_partial(t: pa.Table) -> pa.Table:
            od = t.column("outdeg").to_numpy(zero_copy_only=False)
            r = t.column("rank_fp").to_numpy(zero_copy_only=False)
            return pa.table({"s": pa.array([int(r[od == 0].sum())], pa.int64())})

        dd = int(ranks.map_batches(dang_partial, batch_format="pyarrow").sum("s")) // n

        def new_ranks(g: dict, dd=dd):
            nd, cb = g["nodes"], g["contribs"]
            if not len(nd):
                return rank_schema.empty_table()
            nids = nd["node"].to_numpy(np.int64)
            o = np.argsort(nids)
            nids = nids[o]
            s_vec = np.zeros(len(nids), np.int64)
            if len(cb):
                csum = cb.groupby("node", as_index=False)["s"].sum()
                pos = np.searchsorted(nids, csum["node"].to_numpy(np.int64))
                s_vec[pos] = csum["s"].to_numpy(np.int64)
            return pd.DataFrame({
                "node": nids,
                "outdeg": nd["outdeg"].to_numpy(np.int64)[o],
                "rank_fp": (base + damping_pct * (s_vec + dd) // 100).astype(np.int64),
            })

        contribs = by_key(
            {"edges": (deduped, src, edge_schema), "ranks": (ranks, "node", rank_schema)},
            contrib_part,
        )
        ranks = by_key(
            {"contribs": (contribs, "node", contrib_schema), "nodes": (ranks, "node", rank_schema)},
            new_ranks,
        ).materialize()

    def finish(t: pa.Table) -> pa.Table:
        r = t.column("rank_fp").to_numpy(zero_copy_only=False)
        return pa.table({
            "node": t.column("node").combine_chunks(),
            "rank_fp": t.column("rank_fp").combine_chunks(),
            "rank": pa.array(round_half_away(r / scale, 10), pa.float64()),
        })

    return ranks.map_batches(finish, batch_format="pyarrow")
