"""Benchmark harness: headline pipelines over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": total_sec, "unit": "sec",
   "queries": {name: sec, ...}, "sf": ..., "num_cpus": N, ...extras}

``--scaling`` runs the headline pipeline at two parallelism levels
(num_cpus=8 and num_cpus=32) in FRESH processes on the same input and reports
both throughputs plus scaling efficiency (the in-sandbox evidence for the
north rule's N-vs-4N cluster criterion; see BASELINE.md).

Corpus: the deterministic interleaved-document corpus (seed 42), sized
BENCH_DOC_MULT × the sf dir's documents row count (sf0.1 → 100,000 docs).
Generation is cached on disk and excluded from timings; one untimed read
warms the page cache before the timed run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pdftext_ray  # noqa: F401  (sets OpenBLAS env before ray/numpy load)

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
DOC_MULT = int(os.environ.get("BENCH_DOC_MULT", "20"))
SEED = 42


def _burn(seconds: float) -> int:
    """Busy loop for the scaling calibration probe (module-level for Pool)."""
    t0 = time.perf_counter()
    x = 0
    while time.perf_counter() - t0 < seconds:
        x += 1
    return x


def _sf_label(path: str) -> float:
    base = os.path.basename(path.rstrip("/"))
    try:
        return float(base.replace("sf", ""))
    except ValueError:
        return -1.0


def calibrate(seconds: float = 1.5) -> float:
    """Mloops/s PER PROCESS of a pure-python burn run in one process per
    host CPU (``os.cpu_count()``) — a host-noise probe whose reading means
    the same on every host: it is one core's speed while all cores are
    busy. A contended window reads well under a quiet one, capping Ray
    throughput regardless of num_cpus and invalidating the 8-vs-32 ratio.
    Recorded per scaling pair and around the timed queries, so a contended
    measurement is visibly contended. Readings before this probe was sized
    to the host (BASELINE.md's ~160-170 "quiet") were the TOTAL of 32
    processes on a 32-cpu VM, i.e. ~5 per process. Spawned workers: the
    probe also runs after a Ray session, whose threads make fork unsafe."""
    import multiprocessing as mp

    n = os.cpu_count() or 1
    with mp.get_context("spawn").Pool(n) as p:
        counts = p.map(_burn, [seconds] * n)
    return round(sum(counts) / n / seconds / 1e6, 1)


def alloc_probe(n: int = 5) -> tuple:
    """Median ms to allocate + first-touch a FRESH 32 MB buffer — the
    probe for the hypervisor memory-write stalls isolated in round 2
    (SURVEY §12): they are invisible to the CPU burn (measured 137.9
    Mloops — only −18% — while a first-touch took 6.3 s and every bench
    query ran 3-5× slow), but every Ray object-store write pays them.
    Quiet ≈ 5-40 ms; a stalled window reads SECONDS — and the stall
    concentrates on the FIRST big allocation a process makes (measured
    7.6 s then 7 ms steady in the same interpreter), exactly what every
    fresh Ray worker pays. Each sample therefore runs in a FRESH
    subprocess (in-process repeats reuse the arena and hide it); report
    (median, max) — the max is the signal."""
    code = (
        "import time, numpy as np\n"
        "t0 = time.perf_counter()\n"
        "b = np.empty(32 * 1024 * 1024 // 8, dtype=np.int64)\n"
        "b.fill(1)\n"
        "print(round((time.perf_counter() - t0) * 1000, 1))\n"
    )
    ts = []
    for _ in range(n):
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True
        ).stdout
        try:
            ts.append(float(out.strip()))
        except ValueError:
            # a probe subprocess dying (OOM mid-stall — the very thing
            # being probed) must not abort the run; record the
            # failure as an off-scale finite sentinel (JSON-safe)
            ts.append(99_999.0)
    return (sorted(ts)[len(ts) // 2], max(ts))


def host_probe() -> dict:
    """One reading of both host-noise probes (see :func:`calibrate`,
    :func:`alloc_probe`); taken outside every timed query."""
    return {"calib_mloops": calibrate(), "alloc_ms32": list(alloc_probe())}


def run_bench() -> dict:
    import ray

    host = {"before": host_probe()}
    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    import ray.data
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    # map_groups partitions that receive zero rows make Ray emit a schema-less
    # empty RefBundle and log a benign "different schema" WARNING before the
    # group fn is ever invoked — internal to Ray's shuffle, not an op defect
    # (typed-empty discipline for OUR emitters is invariant 12 in CLAUDE.md).
    import logging

    logging.getLogger("ray.data").setLevel(logging.ERROR)

    import pyarrow.parquet as pq

    from pdftext_ray.pipelines import corpus_io, extract as P
    from pdftext_ray.ops import dedup, relational, similarity, textstats

    n_docs = pq.read_metadata(os.path.join(SF_DIR, "documents.parquet")).num_rows * DOC_MULT
    from pdftext_ray.pipelines.corpus_io import CORPUS_FORMAT_VERSION

    corpus_path = f"/tmp/pdftext_ray_corpus/bench_n{n_docs}_s{SEED}_v{CORPUS_FORMAT_VERSION}"
    corpus_io.materialize_corpus(corpus_path, n_docs, SEED)

    # untimed warm read that actually decodes the payload column (a bare
    # .count() answers from parquet metadata without reading data)
    import pyarrow as _pa

    ray.data.read_parquet(corpus_path).map_batches(
        lambda t: _pa.table({"n": [t.num_rows]}), batch_format="pyarrow"
    ).count()
    # untimed worker-pool warm-up: run the extraction stage NUM_CPUS-wide on a
    # small slice so every Ray worker process exists and has imported the
    # kernel before the timed run. The metric is steady-state throughput —
    # at production corpus sizes worker cold-start amortizes to nothing, but
    # at the 100k-doc bench size spawning 32 interpreters mid-measurement
    # costs seconds and pure noise.
    from pdftext_ray.stages import extract as _X

    (
        ray.data.read_parquet(corpus_path, columns=["doc_id", "spans"])
        .limit(NUM_CPUS * 32)
        .repartition(NUM_CPUS)
        .map_batches(_X.DocumentExtractor(), batch_format="pyarrow")
        .count()
    )

    only = set(os.environ.get("BENCH_QUERIES", "").split(",")) - {""}

    def want(name: str) -> bool:
        return not only or name in only

    out_dir = "/tmp/pdftext_ray_bench_out"
    shutil.rmtree(out_dir, ignore_errors=True)

    queries = {}
    extras = {}

    def timed(name, fn):
        if not want(name):
            return
        t0 = time.perf_counter()
        fn()
        queries[name] = round(time.perf_counter() - t0, 3)

    # headline: flagship skew-aware extraction (ingest-time size buckets →
    # predicate-pushdown reads per branch), consumed by a partitioned write
    def q_extract():
        out = P.extract_corpus_skew_aware(corpus_path)
        out.write_parquet(os.path.join(out_dir, "spans"))

    timed("extract_flagship", q_extract)
    if "extract_flagship" in queries:
        extras["docs_per_sec"] = round(n_docs / queries["extract_flagship"], 1)
    extras["n_docs"] = n_docs

    # sampled exact-match rate vs the single-doc oracle (seeded 200-doc sample)
    verify_state = {}

    def q_verify():
        import numpy as np
        import pyarrow.compute as pc

        rng = np.random.RandomState(7)
        sample_ids = sorted(rng.choice(n_docs, size=min(200, n_docs), replace=False).tolist())
        id_set = {f"doc-{i:08d}" for i in sample_ids}
        got = {}
        import pyarrow as pa

        id_arr = pa.array(sorted(id_set))
        spans_ds = ray.data.read_parquet(os.path.join(out_dir, "spans"))
        # vectorized filter: a row-based filter(lambda) would rebuild blocks
        # with schema inference (an all-empty block infers list<null>)
        sampled = spans_ds.map_batches(
            lambda t: t.filter(pc.is_in(t.column("doc_id"), value_set=id_arr)),
            batch_format="pyarrow",
        )
        flat = P.flat_spans(sampled)
        for b in flat.iter_batches(batch_format="pyarrow"):
            for r in b.to_pylist():
                got.setdefault(r["doc_id"], []).append((r["order"], r["kind"], r["text"], r["media_ref"]))
        from pdftext_ray.corpus import generate_document
        from pdftext_ray.kernel.document import extract_document

        matches = 0
        for i in sample_ids:
            doc = generate_document(i, SEED)
            res = extract_document([s["text"] for s in doc["spans"] if s["kind"] == "text"])
            want = [(s["order"], s["kind"], s["text"], s["media_ref"]) for s in res["spans"]]
            if sorted(got.get(doc["doc_id"], [])) == sorted(want):
                matches += 1
        extras["exact_match_rate"] = round(matches / len(sample_ids), 4)
        verify_state["got"] = got
        verify_state["sample_ids"] = sample_ids

    def q_alignment():
        # alignment score (reference benchmark's rapidfuzz metric stand-in,
        # pdftext benchmark/benchmark.py:96-99): mean difflib ratio between
        # pipeline and oracle text on the sample. Timed SEPARATELY from
        # verify_sample — it is driver-side difflib by nature (VERDICT r2
        # item 8) and must not pollute the verification timing.
        import difflib

        from pdftext_ray.corpus import generate_document
        from pdftext_ray.kernel.document import extract_document

        got = verify_state["got"]
        ratios = []
        for i in verify_state["sample_ids"][:50]:
            doc = generate_document(i, SEED)
            res = extract_document([s["text"] for s in doc["spans"] if s["kind"] == "text"])
            want_text = "".join(s["text"] for s in res["spans"])
            got_text = "".join(t[2] for t in sorted(got.get(doc["doc_id"], [])))
            ratios.append(difflib.SequenceMatcher(None, got_text, want_text).ratio())
        extras["alignment_score"] = round(100 * sum(ratios) / max(len(ratios), 1), 2)

    if os.path.isdir(os.path.join(out_dir, "spans")):
        timed("verify_sample", q_verify)
        if "got" in verify_state:
            timed("verify_alignment", q_alignment)

    from pdftext_ray.storage import read_table

    # rows-aware block sizing for the LIGHT vectorized queries (SURVEY §12's
    # prescribed fix, VERDICT r4 item 7): Ray over-splits sub-MB sf files
    # into ~64 tiny blocks and every shuffle/aggregate stage then pays ~64
    # fixed task costs. 25k rows/block keeps lineitem at ~24 blocks and the
    # small dimension tables at a handful. CPU-heavy text/signature queries
    # deliberately keep the default split (they want one block per core).
    LIGHT_RPB = 25_000

    def sf_read(name, columns, rows_per_block=None):
        # read_table strips parquet pandas schema metadata (unhashable dict
        # that defeats Ray's schema dedup in downstream hash shuffles)
        return read_table(os.path.join(SF_DIR, f"{name}.parquet"), columns=columns,
                          rows_per_block=rows_per_block)

    def docs_ds():
        return sf_read("documents", ["doc_id", "text"])

    # plain_text re-reads the corpus the flagship already consumed. Between
    # the two, the flagship wrote a multi-GB spans output and verify_sample
    # re-read it — on a memory-pressured host that EVICTS the corpus page
    # cache, so plain_text would pay cold disk reads the flagship didn't
    # (the r3/r4 driver-window 1.4-1.6x ratios on a plan that measures
    # 0.97x quiet). Apply the same declared warm-read policy the flagship
    # gets (untimed decode pass, header comment above), after dropping the
    # spans output that verify has fully consumed.
    if want("plain_text"):
        shutil.rmtree(os.path.join(out_dir, "spans"), ignore_errors=True)
        ray.data.read_parquet(corpus_path).map_batches(
            lambda t: _pa.table({"n": [t.num_rows]}), batch_format="pyarrow"
        ).count()
    timed("plain_text", lambda: P.extract_plain_text_corpus_skew_aware(corpus_path)
          .write_parquet(os.path.join(out_dir, "plain")))
    timed("dedup_minhash", lambda: dedup.minhash_lsh_pairs(docs_ds(), threshold=0.5).count())
    timed("dedup_exact", lambda: dedup.exact_dedup(docs_ds()).count())

    def _doc_parity(parity):
        def fn(t):
            import pyarrow as pa
            import pyarrow.compute as pc

            return t.filter(pc.equal(
                pc.bit_wise_and(t.column("doc_id"), pa.scalar(1, pa.int64())),
                pa.scalar(parity, pa.int64())))

        return fn

    # incremental family: even-id docs stand in for the persisted baseline
    timed("incremental_dedup", lambda: dedup.incremental_exact_dedup(
        docs_ds().map_batches(_doc_parity(1), batch_format="pyarrow"),
        docs_ds().map_batches(_doc_parity(0), batch_format="pyarrow").map_batches(
            lambda b: __import__("pyarrow").table({"text_hash": __import__("pyarrow").array(
                dedup._md5_hex(b.column("text").to_pylist()))}),
            batch_format="pyarrow")).count())
    # the baseline signature table is the PERSISTED artifact a daily run
    # reads back — prepared untimed (the incremental_cc precedent below):
    # a stored table, not a lazy MinHasher lineage
    _base_sigs = dedup.minhash_signatures(
        docs_ds().map_batches(_doc_parity(0), batch_format="pyarrow")).materialize()
    timed("incremental_minhash", lambda: dedup.incremental_minhash_dedup(
        docs_ds().map_batches(_doc_parity(1), batch_format="pyarrow"),
        _base_sigs, threshold=0.5).count())

    def q_daily_increment():
        # the composed daily-crawl loop: day-1 artifacts (even docs) are the
        # persisted state, prepared UNTIMED; the timed region is one full
        # day-2 increment — exact dedup + minhash verdicts + cluster
        # stability + artifact roll-forward (pipelines/increment.py)
        import shutil

        from pdftext_ray.pipelines import increment as _inc

        art = "/tmp/pdftext_ray_bench_increment"
        shutil.rmtree(art, ignore_errors=True)
        _inc.run_increment(
            docs_ds().map_batches(_doc_parity(0), batch_format="pyarrow"), art)
        day2 = docs_ds().map_batches(_doc_parity(1), batch_format="pyarrow").materialize()
        timed("daily_increment", lambda: _inc.run_increment(day2, art)["new_docs"])

    if want("daily_increment"):
        q_daily_increment()

    def _vec_parity(parity):
        def fn(t):
            import pyarrow as pa
            import pyarrow.compute as pc

            return t.filter(pc.equal(
                pc.bit_wise_and(t.column("vec_id"), pa.scalar(1, pa.int64())),
                pa.scalar(parity, pa.int64())))

        return fn

    timed("incremental_embedding", lambda: dedup.incremental_embedding_dedup(
        sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB).map_batches(
            _vec_parity(1), batch_format="pyarrow"),
        sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB).map_batches(
            _vec_parity(0), batch_format="pyarrow"),
        threshold=0.9, n_planes=12, probe_radius=1).count())
    timed("text_stats", lambda: textstats.quality_scores(docs_ds()).count())
    timed("dedup_simhash", lambda: dedup.simhash_pairs(docs_ds(), max_hamming=3).count())
    timed("ngram_jaccard", lambda: dedup.ngram_jaccard_pairs(docs_ds(), threshold=0.5).count())
    timed("substring_dedup", lambda: dedup.substring_dedup(docs_ds(), k=8).count())
    timed("winnow", lambda: textstats.winnow_fingerprints(docs_ds()).count())
    timed("gopher_quality", lambda: textstats.gopher_quality(docs_ds()).count())
    timed("paragraph_dedup", lambda: dedup.paragraph_dedup(
        docs_ds().map_batches(lambda b: dedup.chunk_text_batch(b, 10), batch_format="pyarrow")
    ).count())

    def q_clusters():
        from pdftext_ray.ops import cluster

        pairs = dedup.minhash_lsh_pairs(docs_ds(), threshold=0.4)
        cluster.connected_components_distributed(pairs).count()

    timed("dedup_clusters", q_clusters)

    def q_incremental_cc():
        from pdftext_ray.ops import cluster

        # persisted artifacts (baseline labels, split pair table) are
        # prepared UNTIMED — the bench measures the incremental assignment
        # itself, which is what a daily crawl run pays
        import pyarrow as pa
        import pyarrow.compute as pc

        pairs = dedup.minhash_lsh_pairs(
            docs_ds(), threshold=0.4, exact_recall=False).materialize()

        def split(want_base):
            def fn(t):
                both_even = pc.and_(
                    pc.equal(pc.bit_wise_and(t.column("doc_a"), pa.scalar(1, pa.int64())), 0),
                    pc.equal(pc.bit_wise_and(t.column("doc_b"), pa.scalar(1, pa.int64())), 0),
                )
                return t.filter(both_even if want_base else pc.invert(both_even))

            return fn

        inc_pairs = pairs.map_batches(split(False), batch_format="pyarrow")
        labels = cluster.connected_components_distributed(
            pairs.map_batches(split(True), batch_format="pyarrow")).materialize()
        timed("incremental_cc", lambda: cluster.incremental_connected_components(
            inc_pairs, labels).count())

    if want("incremental_cc"):
        q_incremental_cc()
    # the exact O(n²) baseline AND the hyperplane-LSH path: the LSH number is
    # the one that scales (the 100 TB plan — VERDICT r2 item 8); the brute
    # number is the guarded exact baseline it trades against at this size
    timed("embedding_pairs", lambda: dedup.embedding_pairs_bruteforce(
        sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB), threshold=0.4).count())
    timed("embedding_pairs_lsh", lambda: dedup.embedding_dup_pairs(
        sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB),
        threshold=0.4, n_planes=8, probe_radius=1).count())

    def q_similarity():
        emb = sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB)
        t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"), columns=["vec_id", "embedding"])
        import numpy as np

        q = np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)
        similarity.brute_force_topk(emb, q, k=10).to_pandas()

    timed("similarity_topk", q_similarity)

    timed("pricing_summary", lambda: relational.lineitem_pricing_summary(
        sf_read("lineitem", ["l_returnflag", "l_linestatus", "l_quantity",
                             "l_extendedprice", "l_discount"], rows_per_block=LIGHT_RPB)).to_pandas())
    timed("events_hourly", lambda: relational.events_hourly_window(
        sf_read("events", ["event_id", "ts", "event_type", "value"], rows_per_block=LIGHT_RPB)).count())
    timed("events_sessions", lambda: relational.sessionize_events(
        sf_read("events", ["event_id", "ts", "user_id", "value"], rows_per_block=LIGHT_RPB)).count())

    def q_hash_join():
        from pdftext_ray.ops import joins

        joins.partitioned_hash_join(
            sf_read("lineitem", ["l_orderkey", "l_quantity"], rows_per_block=LIGHT_RPB),
            sf_read("orders", ["o_orderkey", "o_orderpriority"], rows_per_block=LIGHT_RPB),
            "l_orderkey", "o_orderkey",
        ).count()

    timed("hash_join", q_hash_join)

    def q_range_join():
        from pdftext_ray.ops import joins

        joins.range_join_events(
            sf_read("events", ["event_id", "ts", "user_id", "event_type"], rows_per_block=LIGHT_RPB)
        ).count()

    timed("events_range_join", q_range_join)
    timed("decontaminate", lambda: textstats.decontaminate(
        sf_read("documents", ["doc_id", "text", "source"]), n=3).count())

    def q_kmeans():
        from pdftext_ray.ops import cluster

        cluster.kmeans_assign(sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB)).count()

    timed("kmeans", q_kmeans)

    def q_pack():
        from pdftext_ray.ops import pack

        pack.pack_sequences(docs_ds(), budget=1024).count()

    timed("pack_sequences", q_pack)

    def q_shuffle_rank():
        from pdftext_ray.ops import sampling

        sampling.shuffle_rank(sf_read("documents", ["doc_id"], rows_per_block=LIGHT_RPB)).count()

    timed("shuffle_rank", q_shuffle_rank)
    timed("top_ngrams", lambda: textstats.top_ngrams(
        sf_read("documents", ["text"]), n=2, k=50).count())

    def q_mixture():
        from pdftext_ray.pipelines.mixture import training_mixture

        training_mixture(
            sf_read("documents", ["doc_id", "text", "lang"]), budget=1024
        ).count()

    timed("training_mixture", q_mixture)
    # production configuration: probabilistic banding (the scale path).
    # exact_recall=True is the gate-oracle mode — it must VERIFY every pair
    # sharing any shingle (~quadratic in co-occurrence), which is the
    # documented non-scale path and not what a 100 TB run would ship.
    timed("dedup_keepbest", lambda: dedup.fuzzy_dedup_keepbest(
        docs_ds(), threshold=0.4, exact_recall=False).count())

    def q_pagerank():
        from pdftext_ray.ops import graph

        def to_edges(t):
            import pyarrow as _pa
            import pyarrow.compute as _pc

            return _pa.table({"src": t.column("l_suppkey"),
                              "dst": _pc.add(t.column("l_partkey"), 1_000_000)})

        edges = sf_read("lineitem", ["l_suppkey", "l_partkey"],
                        rows_per_block=LIGHT_RPB).map_batches(
            to_edges, batch_format="pyarrow")
        graph.pagerank(edges, n_iter=8).count()

    timed("graph_pagerank", q_pagerank)
    timed("lm_perplexity", lambda: textstats.lm_perplexity(docs_ds()).count())

    def q_salted_join():
        from pdftext_ray.ops import joins

        joins.salted_hash_join(
            sf_read("events", ["event_id", "user_id", "value"], rows_per_block=LIGHT_RPB),
            sf_read("customer", ["c_custkey", "c_mktsegment"], rows_per_block=LIGHT_RPB),
            "user_id", "c_custkey", salt_col="event_id",
            left_cols=["event_id", "user_id", "value"],
            right_cols=["c_custkey", "c_mktsegment"],
            hot_threshold=50, num_salts=4,
        ).count()

    timed("salted_join", q_salted_join)
    timed("sort_rank", lambda: relational.sort_rank(
        sf_read("documents", ["doc_id", "n_chars"], rows_per_block=LIGHT_RPB), "n_chars", "doc_id",
        descending=True, n_buckets=10).count())

    def q_sq8():
        emb = sf_read("embeddings", ["vec_id", "embedding"], rows_per_block=LIGHT_RPB)
        t = pq.read_table(os.path.join(SF_DIR, "embeddings.parquet"), columns=["vec_id", "embedding"])
        import numpy as np

        q = np.asarray(t.column("embedding")[0].as_py(), dtype=np.float64)
        similarity.sq8_topk(emb, q, k=10).to_pandas()

    timed("similarity_sq8", q_sq8)
    timed("bpe_train", lambda: textstats.bpe_train(docs_ds(), n_merges=30))

    ray.shutdown()
    host["after"] = host_probe()
    return {
        "metric": "pdftext_ray bench total (headline: interleaved-doc span extraction)",
        "value": round(sum(queries.values()), 3),
        "unit": "sec",
        "queries": queries,
        "sf": _sf_label(SF_DIR),
        "num_cpus": NUM_CPUS,
        "host": host,
        **extras,
    }


def run_scaling() -> dict:
    """Same job at num_cpus=8 and num_cpus=32 in fresh processes.

    Runs ``SCALING_REPEATS`` (default 3) INTERLEAVED 8/32-cpu pairs and
    reports the median efficiency with the full spread — one pair on a noisy
    shared machine can report an unphysical >1.0 value (VERDICT r1 item 6);
    the median of interleaved pairs is the defensible number.
    """
    repeats = int(os.environ.get("SCALING_REPEATS", "3"))

    def run(ncpu: int) -> dict:
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   BENCH_QUERIES="extract_flagship,verify_sample")
        out = subprocess.run([sys.executable, os.path.abspath(__file__)], env=env,
                             capture_output=True, text=True, check=True,
                             cwd=os.path.dirname(os.path.abspath(__file__))).stdout
        return json.loads(out.strip().splitlines()[-1])

    lo_cpus, hi_cpus = 8, 32
    pairs = []
    calibs = []
    allocs = []
    for _ in range(repeats):
        calibs.append(calibrate())
        allocs.append(list(alloc_probe()))  # [median_ms, max_ms] fresh-process
        lo = run(lo_cpus)  # first pair also warms the corpus cache
        hi = run(hi_cpus)
        pairs.append((lo, hi))
    def median(xs):
        xs = sorted(xs)
        return xs[len(xs) // 2] if len(xs) % 2 else (xs[len(xs) // 2 - 1] + xs[len(xs) // 2]) / 2

    effs = [
        (lo["queries"]["extract_flagship"] / hi["queries"]["extract_flagship"])
        / (hi_cpus / lo_cpus)
        for lo, hi in pairs
    ]
    # per-cpu throughput at each scale — the flatness of these two series is
    # the physical content of "efficiency ≈ 1.0"; values a few percent above
    # 1.0 are the machine's run-to-run noise band, not physics
    median_eff = median(effs)
    last_lo, last_hi = pairs[-1]
    return {
        "metric": f"scaling efficiency (extract_flagship, median of {repeats} interleaved fresh-ray.init 8-vs-32-cpu pairs)",
        "value": round(median_eff, 3),
        "unit": "efficiency",
        "efficiencies": [round(e, 3) for e in sorted(effs)],
        "docs_per_sec_per_cpu_8": [
            round(lo["docs_per_sec"] / lo_cpus, 1) for lo, _ in pairs
        ],
        "docs_per_sec_per_cpu_32": [
            round(hi["docs_per_sec"] / hi_cpus, 1) for _, hi in pairs
        ],
        "sec_8": [round(lo["queries"]["extract_flagship"], 3) for lo, _ in pairs],
        "sec_32": [round(hi["queries"]["extract_flagship"], 3) for _, hi in pairs],
        "host_calib_mloops": calibs,
        "host_alloc_ms32": allocs,
        "docs_per_sec_8": last_lo["docs_per_sec"],
        "docs_per_sec_32": last_hi["docs_per_sec"],
        "exact_match_rate": last_hi.get("exact_match_rate"),
        "sf": last_lo["sf"],
        "n_docs": last_lo["n_docs"],
    }


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    else:
        print(json.dumps(run_bench()))
