"""Op-layer scale stress (VERDICT r3 item 1, second half).

Replicates the sf0.1 tables MULT× with remapped ids — text/embeddings kept
BYTE-IDENTICAL across copies, so every document gains MULT-1 exact
duplicates and every dedup op faces a duplication-saturated corpus (its
worst case, and its whole purpose) — then runs the heavy op-layer queries
at 1× and MULT× in one Ray session and reports sec + scaling ratio per op.
A ratio ≈ MULT is linear; >> MULT means a super-linear stage to fix.

Usage (from /root/repo, owns its Ray session):
    python scripts/stress_ops.py [mult] [only_query,...]
Prints one JSON line; paste the findings into BASELINE.md.
"""
import json
import os
import sys
import time

sys.path.insert(0, os.getcwd())

import ray

SF_DIR = "/root/testdata/sf0.1"
STRESS_ROOT = "/tmp/pdftext_ray_stress"
OFFSET = 10_000_000  # id offset per copy — clears every sf0.1 key range


def build_replicas(mult: int) -> str:
    """Write MULT× copies of the op-layer tables with remapped ids.

    Ids are offset per copy; payload columns (text, embedding, ts, user_id,
    graph keys) are untouched, so key-cardinality grows ×MULT while
    per-key duplication ALSO grows ×MULT — the harsh case for dedup."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    out = os.path.join(STRESS_ROOT, f"x{mult}")
    if os.path.isdir(out) and os.path.exists(os.path.join(out, "_DONE")):
        return out
    os.makedirs(out, exist_ok=True)
    id_cols = {
        "documents": ["doc_id"],
        "embeddings": ["vec_id"],
        "events": ["event_id"],
        "lineitem": ["l_orderkey"],
        "orders": ["o_orderkey"],
    }
    for name, cols in id_cols.items():
        t = pq.read_table(os.path.join(SF_DIR, f"{name}.parquet"))
        copies = []
        for j in range(mult):
            c = t
            for col in cols:
                c = c.set_column(
                    c.schema.get_field_index(col), col,
                    pc.add(c.column(col), j * OFFSET))
            copies.append(c)
        big = pa.concat_tables(copies)
        pq.write_table(big, os.path.join(out, f"{name}.parquet"),
                       row_group_size=max(4096, big.num_rows // 64))
    # customer is a join small side — copied unscaled
    pq.write_table(pq.read_table(os.path.join(SF_DIR, "customer.parquet")),
                   os.path.join(out, "customer.parquet"))
    open(os.path.join(out, "_DONE"), "w").close()
    return out


def _parity_rows(parity):
    """Batch filter keeping rows whose doc_id has the given parity; imports
    resolve on the worker (lambda closures over driver-local module names
    do not survive serialization here)."""
    def fn(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        return t.filter(pc.equal(
            pc.bit_wise_and(t.column("doc_id"), pa.scalar(1, pa.int64())),
            pa.scalar(parity, pa.int64())))

    return fn


def _vec_parity(parity):
    """vec_id-parity batch filter (the embeddings-table analog of
    _parity_rows)."""
    def fn(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        return t.filter(pc.equal(
            pc.bit_wise_and(t.column("vec_id"), pa.scalar(1, pa.int64())),
            pa.scalar(parity, pa.int64())))

    return fn


def _parity_hashes(parity):
    """Hash-only projection of the given parity's docs (the persisted-
    baseline stand-in for the incremental-dedup stress)."""
    rows = _parity_rows(parity)

    def fn(t):
        import pyarrow as pa

        from pdftext_ray.ops.dedup import _md5_hex

        kept = rows(t)
        return pa.table({"text_hash": pa.array(
            _md5_hex(kept.column("text").to_pylist()), pa.string())})

    return fn


def build_longdoc_skew(inflate: int = 300, every: int = 250) -> str:
    """Documents table with 1-in-``every`` docs inflated ``inflate``× — the
    long-doc-skew probe for window-emitting text ops (substring_dedup):
    ~20 mega-docs end up holding more bytes than the other 4,980 combined,
    so a plan that serializes on a single doc or materializes a per-doc
    quadratic structure shows up as a wall-time cliff, not a gentle ratio."""
    import pyarrow as pa
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    out = os.path.join(STRESS_ROOT, f"longdoc_i{inflate}_e{every}")
    done = os.path.join(out, "_DONE")
    if os.path.exists(done):
        return out
    os.makedirs(out, exist_ok=True)
    import numpy as np

    t = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                      columns=["doc_id", "text"])
    # no pc.modulo in pyarrow 16 — numpy parity mask over the id column
    is_long = pa.array(t.column("doc_id").to_numpy() % every == 0)
    text = pc.if_else(is_long, pc.binary_repeat(t.column("text"), inflate),
                      t.column("text"))
    t = t.set_column(t.schema.get_field_index("text"), "text", text)
    pq.write_table(t, os.path.join(out, "documents.parquet"),
                   row_group_size=256)
    open(done, "w").close()
    return out


def main():
    mult = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    only = set(sys.argv[2].split(",")) if len(sys.argv) > 2 else None

    ray.init(address="local", num_cpus=32, include_dashboard=False,
             logging_level="ERROR")
    from ray.data import DataContext
    DataContext.get_current().enable_progress_bars = False
    import logging
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    from pdftext_ray.ops import cluster, dedup, graph, joins, media, pack, \
        relational, sampling, similarity, streaming, textstats
    from pdftext_ray.pipelines.mixture import training_mixture
    from pdftext_ray.storage import read_table

    big_dir = build_replicas(mult)

    def mk_queries(sf_dir):
        def rd(name, columns):
            return read_table(os.path.join(sf_dir, f"{name}.parquet"),
                              columns=columns)

        def docs():
            return rd("documents", ["doc_id", "text"])

        def q_pagerank():
            import pyarrow as _pa
            import pyarrow.compute as _pc

            edges = rd("lineitem", ["l_suppkey", "l_partkey"]).map_batches(
                lambda t: _pa.table(
                    {"src": t.column("l_suppkey"),
                     "dst": _pc.add(t.column("l_partkey"), 1_000_000)}),
                batch_format="pyarrow")
            return graph.pagerank(edges, n_iter=8)

        def qvec():
            import numpy as np
            import pyarrow.parquet as pq

            t = pq.read_table(os.path.join(sf_dir, "embeddings.parquet"),
                              columns=["embedding"])
            return np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)

        def q_incremental_cc():
            import pyarrow as _pa
            import pyarrow.compute as _pc

            pairs = dedup.minhash_lsh_pairs(docs(), threshold=0.4).materialize()

            def split(want_base):
                def fn(t):
                    both_even = _pc.and_(
                        _pc.equal(_pc.bit_wise_and(
                            t.column("doc_a"), _pa.scalar(1, _pa.int64())), 0),
                        _pc.equal(_pc.bit_wise_and(
                            t.column("doc_b"), _pa.scalar(1, _pa.int64())), 0),
                    )
                    return t.filter(both_even if want_base else _pc.invert(both_even))

                return fn

            labels = cluster.connected_components_distributed(
                pairs.map_batches(split(True), batch_format="pyarrow")).materialize()
            return cluster.incremental_connected_components(
                pairs.map_batches(split(False), batch_format="pyarrow"), labels
            ).count()

        return {
            "dedup_minhash": lambda: dedup.minhash_lsh_pairs(
                docs(), threshold=0.5).count(),
            "dedup_simhash": lambda: dedup.simhash_pairs(
                docs(), max_hamming=3).count(),
            # two-phase DF-pruned plan at BOTH levels (same args → fair
            # ratio); the exact default's hot-df guard fires by design on a
            # mult-replicated corpus, and max_doc_freq is its documented
            # scale remedy
            "ngram_jaccard_2ph": lambda: dedup.ngram_jaccard_pairs(
                docs(), threshold=0.5, max_doc_freq=8 * mult).count(),
            "substring_dedup": lambda: dedup.substring_dedup(
                docs(), k=8).count(),
            "paragraph_dedup": lambda: dedup.paragraph_dedup(
                docs().map_batches(
                    lambda b: dedup.chunk_text_batch(b, 10),
                    batch_format="pyarrow")).count(),
            "dedup_clusters": lambda: cluster.connected_components_distributed(
                dedup.minhash_lsh_pairs(docs(), threshold=0.4)).count(),
            # incremental shape: even-id docs are the persisted baseline
            # (hash table only), odd-id docs the increment — on the
            # replicated corpus every increment doc collides with baseline
            "incremental_dedup": lambda: dedup.incremental_exact_dedup(
                docs().map_batches(_parity_rows(1), batch_format="pyarrow"),
                docs().map_batches(_parity_hashes(0), batch_format="pyarrow"),
            ).count(),
            # the baseline is the PERSISTED signature table by the op's
            # contract — materialized, not a lazy MinHasher lineage
            "incremental_minhash": lambda: dedup.incremental_minhash_dedup(
                docs().map_batches(_parity_rows(1), batch_format="pyarrow"),
                dedup.minhash_signatures(
                    docs().map_batches(_parity_rows(0), batch_format="pyarrow")
                ).materialize(),
                threshold=0.5,
            ).count(),
            "incremental_embedding": lambda: dedup.incremental_embedding_dedup(
                rd("embeddings", ["vec_id", "embedding"]).map_batches(
                    _vec_parity(1), batch_format="pyarrow"),
                rd("embeddings", ["vec_id", "embedding"]).map_batches(
                    _vec_parity(0), batch_format="pyarrow"),
            ).count(),
            "embedding_pairs_lsh": lambda: dedup.embedding_dup_pairs(
                rd("embeddings", ["vec_id", "embedding"]),
                threshold=0.4, n_planes=8, probe_radius=1).count(),
            "dedup_keepbest": lambda: dedup.fuzzy_dedup_keepbest(
                docs(), threshold=0.4, exact_recall=False).count(),
            "training_mixture": lambda: training_mixture(
                rd("documents", ["doc_id", "text", "lang"]),
                budget=1024).count(),
            "lm_perplexity": lambda: textstats.lm_perplexity(docs()).count(),
            "top_ngrams": lambda: textstats.top_ngrams(
                rd("documents", ["text"]), n=2, k=50).count(),
            "winnow": lambda: textstats.winnow_fingerprints(docs()).count(),
            "decontaminate": lambda: textstats.decontaminate(
                rd("documents", ["doc_id", "text", "source"]), n=3).count(),
            "pack_sequences": lambda: pack.pack_sequences(
                docs(), budget=1024).count(),
            "shuffle_rank": lambda: sampling.shuffle_rank(
                rd("documents", ["doc_id"])).count(),
            "sort_rank": lambda: relational.sort_rank(
                rd("documents", ["doc_id", "n_chars"]), "n_chars", "doc_id",
                descending=True, n_buckets=10).count(),
            "kmeans": lambda: cluster.kmeans_assign(
                rd("embeddings", ["vec_id", "embedding"])).count(),
            "graph_pagerank": lambda: q_pagerank().count(),
            "hash_join": lambda: joins.partitioned_hash_join(
                rd("lineitem", ["l_orderkey", "l_quantity"]),
                rd("orders", ["o_orderkey", "o_orderpriority"]),
                "l_orderkey", "o_orderkey").count(),
            "salted_join": lambda: joins.salted_hash_join(
                rd("events", ["event_id", "user_id", "value"]),
                rd("customer", ["c_custkey", "c_mktsegment"]),
                "user_id", "c_custkey", salt_col="event_id",
                left_cols=["event_id", "user_id", "value"],
                right_cols=["c_custkey", "c_mktsegment"],
                hot_threshold=50, num_salts=4).count(),
            "events_sessions": lambda: relational.sessionize_events(
                rd("events", ["event_id", "ts", "user_id", "value"])).count(),
            "events_hourly": lambda: relational.events_hourly_window(
                rd("events", ["event_id", "ts", "event_type", "value"])).count(),
            # similarity family: index BUILD + query at both levels (the
            # r4 unstressed gap) — train-sample caps and broadcast index
            # should keep the ratio ~linear in the scan
            "similarity_ivf": lambda: similarity.ivf_topk(
                rd("embeddings", ["vec_id", "embedding"]), qvec(), k=10).count(),
            "similarity_pq": lambda: similarity.pq_topk(
                rd("embeddings", ["vec_id", "embedding"]), qvec(), k=10).count(),
            "similarity_sq8": lambda: similarity.sq8_topk(
                rd("embeddings", ["vec_id", "embedding"]), qvec(), k=10).count(),
            # incremental CC end to end (pairs -> baseline CC -> increment
            # assignment) — every stage must stay ~linear on the
            # dup-saturated replicas
            "incremental_cc": q_incremental_cc,
            # streaming tumbling windows under shard-count pressure: 2
            # shards = hot-actor funnel, 32 = max message fan-out
            "streaming_windows_s2": lambda: streaming.streaming_window_counts(
                rd("events", ["event_id", "ts", "event_type", "value"]),
                n_shards=2).num_rows,
            "streaming_windows_s8": lambda: streaming.streaming_window_counts(
                rd("events", ["event_id", "ts", "event_type", "value"]),
                n_shards=8).num_rows,
            "streaming_windows_s32": lambda: streaming.streaming_window_counts(
                rd("events", ["event_id", "ts", "event_type", "value"]),
                n_shards=32).num_rows,
        }

    levels = {}
    for label, sf_dir in [("1x", SF_DIR), (f"{mult}x", big_dir)]:
        secs = {}
        for name, fn in mk_queries(sf_dir).items():
            if only and name not in only:
                continue
            t0 = time.perf_counter()
            try:
                rows = fn()
                secs[name] = {"sec": round(time.perf_counter() - t0, 2),
                              "rows": rows}
            except Exception as e:  # record, keep stressing the rest
                secs[name] = {"err": f"{type(e).__name__}: {e}"[:300]}
        levels[label] = secs

    ratios = {}
    for name, lo in levels["1x"].items():
        hi = levels[f"{mult}x"].get(name, {})
        if "sec" in lo and "sec" in hi:
            ratios[name] = round(hi["sec"] / max(lo["sec"], 1e-9), 2)

    out = {"probe": "op-layer mult-replicated scale stress",
           "mult": mult, "levels": levels, "sec_ratios": ratios}
    # main sweep results survive even if an extra section dies
    print(json.dumps(out), file=sys.stderr, flush=True)

    # long-doc skew probe: same doc COUNT, ~20 mega-docs holding more bytes
    # than the rest of the corpus combined — sec should track the BYTES
    # ratio, not cliff on the stragglers
    if not only or "substring_longdoc" in (only or set()):
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        skew_dir = build_longdoc_skew()
        base_bytes = int(pc.sum(pc.binary_length(pq.read_table(
            os.path.join(SF_DIR, "documents.parquet"), columns=["text"]
        ).column("text"))).as_py())
        skew_bytes = int(pc.sum(pc.binary_length(pq.read_table(
            os.path.join(skew_dir, "documents.parquet"), columns=["text"]
        ).column("text"))).as_py())
        res = {}
        for label, d in [("base", SF_DIR), ("skew", skew_dir)]:
            ds = read_table(os.path.join(d, "documents.parquet"),
                            columns=["doc_id", "text"])
            t0 = time.perf_counter()
            rows = dedup.substring_dedup(ds, k=8).count()
            res[label] = {"sec": round(time.perf_counter() - t0, 2), "rows": rows}
        res["bytes_ratio"] = round(skew_bytes / base_bytes, 2)
        res["sec_ratio"] = round(res["skew"]["sec"] / max(res["base"]["sec"], 1e-9), 2)
        out["substring_longdoc"] = res

    # media actor-pool stages at n and n*mult synthetic rows (wide binary
    # payloads; generation untimed, fixed rows-per-partition at both levels)
    if not only or "media" in (only or set()):
        res = {}
        for label, n in [("1x", 4000), (f"{mult}x", 4000 * mult)]:
            feat_in = ray.data.from_arrow(
                media.synth_media_table(n)).repartition(max(8, n // 500))
            ppm_in = ray.data.from_arrow(
                media.synth_ppm_table(n // 2)).repartition(max(8, n // 1000))
            t0 = time.perf_counter()
            fr = media.featurize_media(feat_in).count()
            feat_s = round(time.perf_counter() - t0, 2)
            t0 = time.perf_counter()
            rr = media.resize_media(ppm_in).count()
            res[label] = {"featurize_sec": feat_s, "featurize_rows": fr,
                          "resize_sec": round(time.perf_counter() - t0, 2),
                          "resize_rows": rr}
        res["featurize_ratio"] = round(
            res[f"{mult}x"]["featurize_sec"] / max(res["1x"]["featurize_sec"], 1e-9), 2)
        res["resize_ratio"] = round(
            res[f"{mult}x"]["resize_sec"] / max(res["1x"]["resize_sec"], 1e-9), 2)
        out["media"] = res

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
