"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported; nothing here
calls ``ray.init`` / ``ray.shutdown``.

Every query is registered once, beside its oracle SQL: ``@_query`` on a
query function, ``_op`` for a one-op row (read sf tables, call one op with
constant arguments). ``DRIVER_QUERIES`` is the driver's 50-row window in its
order; every other registered query is an extra. ``queries()``,
``extra_queries()``, ``oracle_sql()`` and ``extra_oracle_sql()`` are views
of the registry.

Extraction queries run over the engine's own deterministic interleaved-
document corpus (BASELINE.json ``input_hint`` — synthesized from
(seed=42, doc index), sized by the sf dir's ``documents`` row count, cached
under /tmp). Their oracles are the single-document reference oracle's golden
parquet (written by plain pyarrow, no Ray), read back in SQL — two
independent execution paths compared value-by-value. Training-data and
relational operators run over the driver's parquet tables with pure-SQL
DuckDB oracles.
"""

from __future__ import annotations

import functools
import importlib
import os
from collections.abc import Callable
from typing import Any, NamedTuple

import pdftext_ray  # noqa: F401  (sets OpenBLAS env before numpy when standalone)
import numpy as np
import pyarrow.parquet as pq

CORPUS_SEED = 42
CORPUS_ROOT = "/tmp/pdftext_ray_corpus"

# The driver's correctness gate runs at sf=0.01 whose documents table has 500
# rows; extraction-oracle SQL paths are pinned to that size.
SF001_DOCS = 500


def _cache_dir(n_docs: int) -> str:
    """Cache dir of the n-doc corpus and of its goldens."""
    from pdftext_ray.pipelines.corpus_io import CORPUS_FORMAT_VERSION

    return os.path.join(CORPUS_ROOT, f"n{n_docs}_s{CORPUS_SEED}_v{CORPUS_FORMAT_VERSION}")


def _golden_path(name: str) -> str:
    """Golden parquet ``expected_<name>`` (goldens exist at the gate size only)."""
    return os.path.join(_cache_dir(SF001_DOCS), f"expected_{name}.parquet")


def _corpus_size(sf_dir: str) -> int:
    return pq.read_metadata(os.path.join(sf_dir, "documents.parquet")).num_rows


def _ensure_corpus(sf_dir: str) -> str:
    """The gate corpus dir, materialized together with its extraction goldens."""
    from pdftext_ray.pipelines import corpus_io, goldens

    _require_gate_corpus(sf_dir)
    n = SF001_DOCS
    corpus = os.path.join(_cache_dir(n), "corpus")
    corpus_io.materialize_corpus(corpus, n, CORPUS_SEED)
    corpus_io.materialize_expected(_golden_path("flat"), n, CORPUS_SEED)
    corpus_io.materialize_expected_plain(_golden_path("plain"), n, CORPUS_SEED)
    corpus_io.materialize_expected_paginated(_golden_path("paginated"), n, CORPUS_SEED)
    goldens.materialize_golden(
        _golden_path("tables"), lambda: goldens.expected_tables_flat_table(n, CORPUS_SEED)
    )
    goldens.materialize_golden(
        _golden_path("dict"), lambda: goldens.expected_dictionary_flat_table(n, CORPUS_SEED)
    )
    return corpus


def _corpus_docs(sf_dir: str):
    """The gate corpus read as (doc_id, spans) documents."""
    from pdftext_ray.pipelines import extract as P

    return P.read_documents(_ensure_corpus(sf_dir))


def _ensure_op_goldens() -> None:
    """Goldens for the non-SQL training-data ops (SimHash, winnowing, media,
    ...) — independent scalar implementations over the gate's tables / the
    deterministic synthetic tables (see pipelines/goldens.py), built once."""
    from pdftext_ray.ops import webdoc
    from pdftext_ray.pipelines import goldens as G

    n = SF001_DOCS

    def col(table: str, name: str) -> list:
        path = os.path.join(GATE_SF_DIR, f"{table}.parquet")
        return pq.read_table(path, columns=[name]).column(name).to_pylist()

    def docs():
        return col("documents", "doc_id"), col("documents", "text")

    def vecs():
        return np.asarray(col("embeddings", "embedding"), dtype=np.float64)

    def ann(build):
        ids, v = col("embeddings", "vec_id"), vecs()
        return build(ids, v, v[ids.index(0)], k=10)

    builders = {
        "simhash": lambda: G.expected_simhash_pairs_table(*docs(), max_hamming=3),
        "winnow": lambda: G.expected_winnow_table(*docs()),
        "incminhash": lambda: G.expected_incremental_minhash_table(*docs(), threshold=0.5),
        "media": lambda: G.expected_media_features_table(max(30, n // 10)),
        # labeled synthesis: the golden is the PLANTED ground truth — no
        # parser involved (ops/webdoc.py module docstring)
        "main_content": lambda: webdoc.expected_main_content_table(max(60, n // 5)),
        # depends on expected_flat (materialized by _ensure_corpus before this)
        "imedia": lambda: G.expected_interleaved_media_table(_golden_path("flat")),
        "kmeans": lambda: G.expected_kmeans_table(col("embeddings", "vec_id"), vecs()),
        "pq": lambda: ann(G.expected_pq_table),
        "sq8": lambda: ann(G.expected_sq8_table),
        "pagerank": lambda: G.expected_pagerank_table(
            zip(col("lineitem", "l_suppkey"), (1_000_000 + k for k in col("lineitem", "l_partkey"))),
            n_iter=8,
        ),
        "lm": lambda: G.expected_lm_table(*docs()),
        "pmi": lambda: G.expected_pmi_table(col("documents", "text"), min_count=5, k=50),
        "grouped_hll": lambda: G.expected_grouped_hll_table(
            col("events", "event_type"), col("events", "user_id"), p=10
        ),
        "resize": lambda: G.expected_resize_table(40),
        "pca": lambda: G.expected_pca_table(vecs()),
        # SAME explicit column list as the describe_table query — the
        # contract is pinned, not a coincidence of the current file schema
        "describe": lambda: G.expected_describe_table(
            pq.read_table(os.path.join(GATE_SF_DIR, "documents.parquet")), DESCRIBE_COLUMNS
        ),
        "bpe": lambda: G.expected_bpe_table(col("documents", "text"), n_merges=30),
        "audio": lambda: G.expected_audio_table(30),
        "video": lambda: G.expected_video_table(25),
        "hll": lambda: G.expected_hll_table(col("events", "event_id"), p=10),
        "cms": lambda: G.expected_cms_table(col("events", "user_id"), threshold=80),
    }
    for name, build in builders.items():
        G.materialize_golden(_golden_path(name), build)


GATE_SF_DIR = "/root/testdata/sf0.01"


def _require_gate_corpus(sf_dir: str, check_content: bool = False) -> None:
    """Queries compared against pinned golden parquet only make sense at the
    gate scale (sf0.01 = 500 docs) — fail loudly instead of a confusing
    row-count mismatch (ADVICE r1). ``check_content=True`` additionally
    verifies the documents table IS the gate table byte-for-byte (the
    simhash/winnow goldens are derived from its text, so a different
    500-doc table would fail with opaque value mismatches)."""
    n = _corpus_size(sf_dir)
    if n != SF001_DOCS:
        raise RuntimeError(
            f"golden-parquet oracles are pinned to the {SF001_DOCS}-doc gate corpus "
            f"(sf0.01); {sf_dir} has {n} docs. Run this query at sf0.01, or use the "
            "pdftext_ray.pipelines APIs directly for other scales."
        )
    if check_content and os.path.realpath(sf_dir) != os.path.realpath(GATE_SF_DIR):
        import hashlib

        def digest(path: str) -> str:
            h = hashlib.md5()
            with open(path, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            return h.hexdigest()

        gate_docs = os.path.join(GATE_SF_DIR, "documents.parquet")
        if not os.path.exists(gate_docs):
            raise RuntimeError(
                f"this query's goldens are derived from {gate_docs}, which does not "
                f"exist on this machine — run the gate from the driver environment"
            )
        mine = digest(os.path.join(sf_dir, "documents.parquet"))
        gate = digest(gate_docs)
        if mine != gate:
            raise RuntimeError(
                f"this query's goldens are derived from {GATE_SF_DIR}/documents.parquet; "
                f"{sf_dir}/documents.parquet has the same row count but different content"
            )


def _read(sf_dir: str, table: str, columns=None):
    from pdftext_ray.storage import read_table

    # read_table strips parquet pandas schema metadata (unhashable dict —
    # breaks Ray's schema dedup in every downstream hash shuffle)
    return read_table(os.path.join(sf_dir, f"{table}.parquet"), columns=columns)


def entry() -> Any:
    """Flagship: interleaved corpus → span-sequence extraction (sf0.001 scale)."""
    from pdftext_ray.pipelines import corpus_io, extract as P

    n = _corpus_size("/root/testdata/sf0.001")
    corpus = os.path.join(_cache_dir(n), "corpus")
    corpus_io.materialize_corpus(corpus, n, CORPUS_SEED)
    ds = P.read_documents(corpus)
    return P.flat_spans(P.extract(ds))


# ---------------------------------------------------------------------------
# the query registry
# ---------------------------------------------------------------------------

class _Entry(NamedTuple):
    fn: Callable[[str], Any]
    # DuckDB SQL over the views region nation customer supplier part orders
    # lineitem events documents embeddings: a string, a thunk building it
    # (golden paths, other queries' oracles), or None for a rows-only query
    oracle: str | Callable[[], str] | None


_REGISTRY: dict[str, _Entry] = {}


def _query(name: str, oracle=None):
    """Decorator registering a query function as ``name`` with its oracle."""
    def register(fn):
        assert name not in _REGISTRY, name
        _REGISTRY[name] = _Entry(fn, oracle)
        return fn

    return register


def _op(name: str, op: str, reads: list, *args, oracle=None, **kwargs) -> None:
    """Register a one-op query: ``op`` ("module.function" under pdftext_ray)
    called on ``reads`` (functions of the sf dir, e.g. ``_table``), then on
    the constant ``args`` / ``kwargs``."""
    def run(sf_dir: str):
        module, _, fn = op.rpartition(".")
        call = getattr(importlib.import_module(f"pdftext_ray.{module}"), fn)
        return call(*(read(sf_dir) for read in reads), *args, **kwargs)

    _query(name, oracle)(run)


def _table(table: str, *columns: str):
    """Reader of ``table`` of the sf dir, pruned to ``columns``."""
    return lambda sf_dir: _read(sf_dir, table, list(columns))


_DOCS = _table("documents", "doc_id", "text")
_EMB = _table("embeddings", "vec_id", "embedding")


def _run(name: str, sf_dir: str):
    """Run registered query ``name`` (for queries composed of queries)."""
    return _REGISTRY[name].fn(sf_dir)


def _sql(name: str) -> str:
    """Oracle SQL of registered query ``name``."""
    oracle = _REGISTRY[name].oracle
    return oracle() if callable(oracle) else oracle


def _golden(name: str, columns: str):
    """Oracle selecting ``columns`` of golden ``expected_<name>``."""
    return lambda: f"SELECT {columns} FROM read_parquet('{_golden_path(name)}')"


_STOPLIST_SQL = "('the', 'a', 'of', 'and', 'to', 'in', 'is')"

# Exact set-Jaccard pair SQL over the MinHasher's word-3-gram semantics
# (incl. the joined-gram fallback for <3-token docs), parameterized by
# threshold — shared by dedup_minhash and the clusters oracle's edge set.
def _minhash_pairs_sql(threshold: float) -> str:
    return (
        "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') t FROM documents), "
        "g AS (SELECT doc_id, list_distinct(CASE WHEN len(t) >= 3 THEN "
        "list_transform(range(1, len(t) - 1), i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) "
        "WHEN len(t) > 0 THEN [array_to_string(t, ' ')] ELSE [] END) grams FROM toks) "
        "SELECT a.doc_id AS doc_a, b.doc_id AS doc_b, "
        "round(CAST(len(list_intersect(a.grams, b.grams)) AS DOUBLE) / greatest(len(list_distinct(list_concat(a.grams, b.grams))), 1), 6) AS jaccard "
        "FROM g a JOIN g b ON a.doc_id < b.doc_id "
        f"WHERE CAST(len(list_intersect(a.grams, b.grams)) AS DOUBLE) / greatest(len(list_distinct(list_concat(a.grams, b.grams))), 1) >= {threshold}"
    )


def _const_str(val: str, n: int):
    """Typed constant string column — empty blocks must NOT infer null type
    (CLAUDE.md invariant 12: untyped empties break keyed shuffles)."""
    import pyarrow as pa

    return pa.array([val] * n, pa.string())


# ---------------------------------------------------------------------------
# extraction (the north-rule surface). Oracles: golden parquet written by the
# independent single-doc reference oracle (plain pyarrow path, no Ray)
# ---------------------------------------------------------------------------

def _spans(plan: str, **kwargs):
    """Query: flat span rows of the gate corpus through extraction ``plan``."""
    def run(sf_dir: str):
        from pdftext_ray.pipelines import extract as P

        return P.flat_spans(getattr(P, plan)(_corpus_docs(sf_dir), **kwargs))

    return run


_query("extract_spans", _golden("flat", "doc_id, \"order\", kind, text, media_ref"))(_spans("extract"))
# the span plans share one oracle
_query("extract_spans_exploded", lambda: _sql("extract_spans"))(_spans("extract_spans_exploded"))
_query("extract_spans_skew_aware", lambda: _sql("extract_spans"))(
    _spans("extract_spans_skew_aware", explode_threshold=40_000)
)
# the skew-bucketed production plan against the fused plan's golden. The
# gate's 500 docs have no large bucket, so only the fused branch runs here
# (the page-exploded branch is covered by tests/test_pipeline.py's heavy
# corpora)
_op("extract_plain_text", "pipelines.extract.extract_plain_text_corpus_skew_aware",
    [_ensure_corpus], oracle=_golden("plain", "doc_id, text"))
_op("extract_paginated_text", "pipelines.extract.extract", [_corpus_docs], "paginated",
    oracle=_golden("paginated", "doc_id, page, text"))


@_query("extract_tables", oracle=_golden("tables", "*"))
def _q_extract_tables(sf_dir: str):
    import pyarrow as pa

    from pdftext_ray.pipelines import extract as P
    from pdftext_ray.pipelines.goldens import _TABLE_FLAT_SCHEMA, flatten_table_rows

    ds = P.extract(_corpus_docs(sf_dir), "tables")

    def flat(batch: pa.Table) -> pa.Table:
        rows = {name: [] for name in _TABLE_FLAT_SCHEMA.names}
        for r in batch.to_pylist():
            out = flatten_table_rows(r["doc_id"], r["page"], r["table_idx"], r["cells"])
            for name in rows:
                rows[name].append(out[name])
        return pa.table(
            {n: pa.array(rows[n], _TABLE_FLAT_SCHEMA.field(n).type) for n in _TABLE_FLAT_SCHEMA.names}
        )

    return ds.map_batches(flat, batch_format="pyarrow")


@_query("extract_dictionary", oracle=_golden("dict", "*"))
def _q_extract_dictionary(sf_dir: str):
    import pyarrow as pa

    from pdftext_ray.pipelines import extract as P
    from pdftext_ray.pipelines.goldens import (
        dict_flat_rows_to_table,
        flatten_dictionary_rows,
        new_dict_flat_rows,
    )

    ds = P.extract(_corpus_docs(sf_dir), "dict")

    # flatten the FULL nested shape to span rows (page dims, refs,
    # block/line/span nesting, bboxes, fonts, char offsets, scripts, urls) —
    # the same shaping the golden builder applies to the kernel-oracle output
    def flat(batch: pa.Table) -> pa.Table:
        rows = new_dict_flat_rows()
        for doc_id, pages in zip(
            batch.column("doc_id").to_pylist(), batch.column("pages").to_pylist()
        ):
            flatten_dictionary_rows(doc_id, pages, rows)
        return dict_flat_rows_to_table(rows)

    return ds.map_batches(flat, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# per-doc text analysis
# ---------------------------------------------------------------------------

# token_count + quality_score + lang_id + fingerprint + bpe_token_count in
# ONE map_batches pass; the oracle column-concatenates theirs
_op("text_stats", "ops.textstats.combined_text_stats", [_DOCS], oracle=(
    "SELECT doc_id, "
    "CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens, "
    "CAST(length(text) AS BIGINT) AS n_chars_text, "
    "round(CAST(len(regexp_extract_all(text, '[a-zA-Z]')) AS DOUBLE) / greatest(length(text), 1), 6) AS alpha_ratio, "
    "round(CAST(length(text) - length(replace(text, ' ', '')) AS DOUBLE) / greatest(length(text), 1), 6) AS space_ratio, "
    f"round(CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1), 6) AS stopword_ratio, "
    "round(CAST(length(replace(text, ' ', '')) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1), 6) AS mean_token_len, "
    f"CASE WHEN CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1) >= 0.02 THEN 'en' ELSE 'unk' END AS pred_lang, "
    f"round(CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1), 6) AS stop_ratio, "
    "md5(lower(text)) AS fingerprint, "
    "CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS BIGINT) AS n_bpe_tokens "
    "FROM documents"
))
_op("token_count", "ops.textstats.token_counts", [_DOCS], oracle=(
    "SELECT doc_id, "
    "CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n_tokens, "
    "CAST(length(text) AS BIGINT) AS n_chars_text FROM documents"
))
_op("quality_score", "ops.textstats.quality_scores", [_DOCS], oracle=(
    "SELECT doc_id, "
    "round(CAST(len(regexp_extract_all(text, '[a-zA-Z]')) AS DOUBLE) / greatest(length(text), 1), 6) AS alpha_ratio, "
    "round(CAST(length(text) - length(replace(text, ' ', '')) AS DOUBLE) / greatest(length(text), 1), 6) AS space_ratio, "
    f"round(CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1), 6) AS stopword_ratio, "
    "round(CAST(length(replace(text, ' ', '')) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1), 6) AS mean_token_len "
    "FROM documents"
))
_op("lang_id", "ops.textstats.lang_id", [_DOCS], oracle=(
    "SELECT doc_id, "
    f"CASE WHEN CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1) >= 0.02 THEN 'en' ELSE 'unk' END AS pred_lang, "
    f"round(CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1), 6) AS stop_ratio "
    "FROM documents"
))
_op("fingerprint", "ops.textstats.fingerprints", [_DOCS], oracle="SELECT doc_id, md5(lower(text)) AS fingerprint FROM documents")
_op("bpe_token_count", "ops.textstats.bpe_token_counts", [_DOCS], oracle=(
    "SELECT doc_id, CAST(len(regexp_extract_all(text, '[A-Za-z]+|[0-9]+|[^A-Za-z0-9\\s]')) AS BIGINT) AS n_bpe_tokens FROM documents"
))
_op("gopher_quality", "ops.textstats.gopher_quality", [_DOCS], oracle=(
    # Gopher repetition gates (Rae et al. 2021 §A1.1): ASCII-whitespace
    # case-sensitive tokens so RE2 and Python re agree byte-for-byte
    "WITH ln AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line FROM documents), "
    "ls AS (SELECT doc_id, count(*) AS n_lines, count(DISTINCT line) AS n_distinct FROM ln GROUP BY doc_id), "
    "w AS (SELECT doc_id, unnest(list_filter(regexp_split_to_array(text, '[ \\t\\n\\r\\f]+'), x -> x <> '')) AS word FROM documents), "
    "wf AS (SELECT doc_id, word, count(*) AS c FROM w GROUP BY doc_id, word), "
    "ws AS (SELECT doc_id, max(c) AS max_c, sum(c) AS n_words FROM wf GROUP BY doc_id) "
    "SELECT d.doc_id, "
    "round(CAST(ls.n_lines - ls.n_distinct AS DOUBLE) / greatest(ls.n_lines, 1), 6) AS dup_line_frac, "
    "round(CAST(coalesce(ws.max_c, 0) AS DOUBLE) / greatest(coalesce(ws.n_words, 0), 1), 6) AS max_word_rep_frac, "
    "round(CAST((length(d.text) - length(replace(d.text, '#', ''))) + (len(string_split(d.text, '...')) - 1) AS DOUBLE) / greatest(coalesce(ws.n_words, 0), 1), 6) AS symbol_word_ratio, "
    "CAST(CASE WHEN round(CAST(ls.n_lines - ls.n_distinct AS DOUBLE) / greatest(ls.n_lines, 1), 6) <= 0.3 "
    "AND round(CAST(coalesce(ws.max_c, 0) AS DOUBLE) / greatest(coalesce(ws.n_words, 0), 1), 6) <= 0.2 "
    "AND round(CAST((length(d.text) - length(replace(d.text, '#', ''))) + (len(string_split(d.text, '...')) - 1) AS DOUBLE) / greatest(coalesce(ws.n_words, 0), 1), 6) <= 0.1 "
    "THEN 1 ELSE 0 END AS BIGINT) AS gopher_keep "
    "FROM documents d JOIN ls ON d.doc_id = ls.doc_id LEFT JOIN ws ON d.doc_id = ws.doc_id"
))


@_query("pii_scrub", oracle=(
    # planting expression mirrors _q_pii_scrub's map token-for-token
    "WITH planted AS (SELECT doc_id, text || ' ' || 'contact user' || CAST(doc_id AS VARCHAR) || "
    "'@example.com visit http://site' || CAST(doc_id AS VARCHAR) || '.org' AS text FROM documents), "
    "s1 AS (SELECT doc_id, "
    "CAST(len(regexp_extract_all(text, 'https?://[^\\s]+')) AS BIGINT) AS n_urls, "
    "regexp_replace(text, 'https?://[^\\s]+', '<URL>', 'g') AS t1 FROM planted) "
    "SELECT doc_id, "
    "regexp_replace(t1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}', '<EMAIL>', 'g') AS text, "
    "n_urls, "
    "CAST(len(regexp_extract_all(t1, '[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\\.[A-Za-z]{2,}')) AS BIGINT) AS n_emails "
    "FROM s1"
))
def _q_pii_scrub(sf_dir: str):
    import pyarrow as pa

    from pdftext_ray.ops import textstats

    def plant(b: pa.Table) -> pa.Table:
        # the gate table contains no addresses — append a deterministic
        # email+URL per doc (mirrored verbatim in the oracle SQL) so the
        # scrub provably fires on every row instead of passing vacuously
        import pyarrow.compute as pc

        ids = pc.cast(b.column("doc_id"), pa.string())
        txt = pc.binary_join_element_wise(
            b.column("text"),
            pc.binary_join_element_wise("contact user", ids, "@example.com visit http://site", ids, ".org", ""),
            " ",
        )
        return pa.Table.from_arrays([b.column("doc_id"), txt], names=["doc_id", "text"])

    planted = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(plant, batch_format="pyarrow")
    return textstats.pii_scrub(planted)


@_query("normalize_text", oracle=(
    # identical plant (upper on even ids, NFD suffix, double spaces)
    # then the SQL normalization pipeline the op contract documents
    "SELECT doc_id, trim(regexp_replace(lower(nfc_normalize("
    "(CASE WHEN doc_id % 2 = 0 THEN upper(text) ELSE text END) "
    "|| ' E' || chr(769) || 'COLE  No' || chr(776) || 'EL ')), "
    "'\\s+', ' ', 'g')) AS text FROM documents"
))
def _q_normalize_text(sf_dir: str):
    """Unicode NFC + lowercase + whitespace-collapse normalization. The gate
    table is already lowercase single-spaced ASCII, so the query PLANTS
    case variants, NFD combining sequences and double spaces (mirrored
    verbatim in the oracle SQL) — the normalizer provably fires on every
    row instead of passing vacuously (same pattern as pii_scrub)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops import textstats

    def plant(b: pa.Table) -> pa.Table:
        mask = pc.equal(pc.bit_wise_and(b.column("doc_id"), 1), 0)
        cased = pc.if_else(mask, pc.utf8_upper(b.column("text")), b.column("text"))
        # suffix uses DECOMPOSED sequences (E+U+0301, o+U+0308) and
        # double spaces: NFC must compose, lower must fold, collapse fires
        txt = pc.binary_join_element_wise(cased, " ÉCOLE  NöEL ", "")
        return pa.Table.from_arrays([b.column("doc_id"), txt], names=["doc_id", "text"])

    planted = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return textstats.normalize_text(planted)


@_query("winnow_fingerprints", oracle=_golden("winnow", "doc_id, fingerprint"))
def _q_winnow_fingerprints(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops import textstats

    _require_gate_corpus(sf_dir, check_content=True)
    ds = textstats.winnow_fingerprints(_read(sf_dir, "documents", ["doc_id", "text"]))

    # explode the fingerprint sets to (doc_id, fingerprint) rows — the full
    # value set, compared against the independent scalar-winnowing golden
    def explode(t: pa.Table) -> pa.Table:
        fps = t.column("fingerprints").combine_chunks()
        return pa.table({
            "doc_id": t.column("doc_id").take(pc.list_parent_indices(fps)),
            "fingerprint": pc.list_flatten(fps),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def _classifier_sql() -> str:
    from pdftext_ray.ops.classifier import DEFAULT_VOCAB, DEFAULT_WEIGHTS, classifier_sql

    return classifier_sql(DEFAULT_VOCAB, DEFAULT_WEIGHTS)


_op("quality_classifier", "ops.classifier.classify_quality", [_DOCS], oracle=_classifier_sql)
# Gopher repetition signals (top-2-gram char fraction, duplicate-5-gram char
# fraction): integer/integer double fractions SQL reproduces exactly
_op("ngram_repetition", "ops.textstats.ngram_repetition", [_DOCS], oracle=(
    # word \S+ tokens; 2-grams/5-grams as space-joined token runs
    # (range(a,b) is [a,b) and list indexing 1-based, so i..i+n-1);
    # top gram = max count, ties to lexicographically smallest;
    # fractions are int·int/int double division — bit-equal to the
    # engine's arithmetic (see ops/textstats.ngram_repetition_batch)
    "WITH toks AS (SELECT doc_id, length(text) AS nc, regexp_extract_all(text, '\\S+') AS t FROM documents), "
    "g2 AS (SELECT doc_id, nc, unnest(list_transform(range(1, len(t)), i -> t[i] || ' ' || t[i+1])) AS gram FROM toks), "
    "c2 AS (SELECT doc_id, nc, gram, count(*) AS c FROM g2 GROUP BY doc_id, nc, gram), "
    "r2 AS (SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY c DESC, gram ASC) AS rn FROM c2), "
    "top2 AS (SELECT doc_id, gram AS top_ngram, round(c * length(gram) / greatest(nc, 1), 6) AS top_ngram_frac FROM r2 WHERE rn = 1), "
    "g5 AS (SELECT doc_id, nc, unnest(list_transform(range(1, len(t) - 3), "
    "i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2] || ' ' || t[i+3] || ' ' || t[i+4])) AS gram FROM toks), "
    "c5 AS (SELECT doc_id, nc, gram, count(*) AS c FROM g5 GROUP BY doc_id, nc, gram), "
    "d5 AS (SELECT doc_id, round(coalesce(sum((c - 1) * length(gram)) FILTER (WHERE c >= 2), 0) "
    "/ greatest(any_value(nc), 1), 6) AS dup_ngram_frac FROM c5 GROUP BY doc_id) "
    "SELECT d.doc_id, coalesce(t2.top_ngram, '') AS top_ngram, "
    "coalesce(t2.top_ngram_frac, 0.0) AS top_ngram_frac, "
    "coalesce(d5.dup_ngram_frac, 0.0) AS dup_ngram_frac "
    "FROM documents d LEFT JOIN top2 t2 USING (doc_id) LEFT JOIN d5 USING (doc_id)"
))
# corpus-trained unigram-LM bits-per-token; fixed-point per-token costs
# shared with the scalar golden — exact match
_op("lm_perplexity", "ops.textstats.lm_perplexity", [_DOCS],
    oracle=_golden("lm", "doc_id, n_tokens, bits_per_token"))
# RAG chunking: overlapping 40-token windows, stride 30
_op("chunk_documents", "ops.textstats.chunk_documents", [_DOCS], window=40, overlap=10,
    oracle=(
        # starts = range(0, n, 30) (DuckDB range is [a,b)); window 40;
        # list_slice is 1-based inclusive; tail windows may be short
        "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents), "
        "s AS (SELECT doc_id, t, unnest(range(0, greatest(len(t), 0), 30)) AS start FROM toks WHERE len(t) > 0) "
        "SELECT doc_id, CAST(start // 30 AS BIGINT) AS chunk_idx, "
        "CAST(least(start + 40, len(t)) - start AS BIGINT) AS chunk_tokens, "
        "array_to_string(list_slice(t, start + 1, least(start + 40, len(t))), ' ') AS chunk_text "
        "FROM s"
    ))
# words containing a double letter, one row per match — cross-engine RE2
# pattern shared with the oracle's regexp_extract_all (pii_scrub's contract)
_op("extract_matches", "ops.textstats.extract_matches", [_DOCS], r"[a-z]*(?:aa|ee|ll|ss|tt)[a-z]*",
    oracle=(
        # zipped unnests (equal lengths) — the line_dedup oracle's idiom
        "WITH m AS (SELECT doc_id, regexp_extract_all(text, "
        "'[a-z]*(?:aa|ee|ll|ss|tt)[a-z]*') AS ms FROM documents) "
        "SELECT doc_id, CAST(unnest(range(1, len(ms) + 1)) - 1 AS BIGINT) AS match_idx, "
        "unnest(ms) AS match FROM m"
    ))


# ---------------------------------------------------------------------------
# corpus-wide text analysis
# ---------------------------------------------------------------------------

# corpus-wide top-50 bigrams; (count desc, gram asc) tie-break on both sides
_op("top_ngrams", "ops.textstats.top_ngrams", [_table("documents", "text")], n=2, k=50,
    oracle=(
        "WITH toks AS (SELECT regexp_extract_all(lower(text), '\\S+') t FROM documents), "
        "g AS (SELECT unnest(list_transform(range(1, len(t)), i -> t[i] || ' ' || t[i+1])) AS gram "
        "FROM toks WHERE len(t) >= 2) "
        "SELECT gram, CAST(count(*) AS BIGINT) AS n FROM g GROUP BY gram "
        "ORDER BY n DESC, gram ASC LIMIT 50"
    ))


@_query("ranked_retrieval", oracle=lambda: (
    "SELECT 'tfidf' AS method, doc_id, term, score FROM (" + _sql("tfidf_topk") + ") tf_sub "
    "UNION ALL SELECT 'bm25' AS method, doc_id, '' AS term, score FROM (" + _sql("bm25_topk") + ") bm_sub"
))
def _q_ranked_retrieval(sf_dir: str):
    """TF-IDF per-doc top-5 terms ∪ BM25 query top-10 docs, tagged by method."""
    import pyarrow as pa
    import pyarrow.compute as pc

    tfidf = _run("tfidf_topk", sf_dir)
    bm25 = _run("bm25_topk", sf_dir)

    def tag_tfidf(t: pa.Table) -> pa.Table:
        return pa.table({
            "method": _const_str("tfidf", len(t)),
            "doc_id": t.column("doc_id"),
            "term": pc.cast(t.column("term"), pa.string()),
            "score": pc.cast(t.column("score"), pa.float64()),
        })

    def tag_bm25(t: pa.Table) -> pa.Table:
        return pa.table({
            "method": _const_str("bm25", len(t)),
            "doc_id": t.column("doc_id"),
            "term": _const_str("", len(t)),
            "score": pc.cast(t.column("score"), pa.float64()),
        })

    return tfidf.map_batches(tag_tfidf, batch_format="pyarrow").union(
        bm25.map_batches(tag_bm25, batch_format="pyarrow")
    )


_op("tfidf_topk", "ops.textstats.tfidf_topk", [_DOCS], k=5, oracle=(
    "WITH t AS (SELECT doc_id, unnest(regexp_extract_all(text, '\\S+')) AS term FROM documents), "
    "tf AS (SELECT doc_id, term, CAST(count(*) AS BIGINT) AS tf FROM t GROUP BY doc_id, term), "
    "df AS (SELECT term, count(*) AS df FROM tf GROUP BY term), "
    "n AS (SELECT count(*) AS n FROM documents), "
    "s AS (SELECT tf.doc_id, tf.term, tf.tf, "
    "round(tf.tf * ln(CAST(n.n AS DOUBLE) / df.df), 6) AS score "
    "FROM tf, df, n WHERE tf.term = df.term), "
    "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY score DESC, term ASC) rn FROM s) "
    "SELECT doc_id, term, tf, score FROM r WHERE rn <= 5"
))
_op("bm25_topk", "ops.textstats.bm25_topk", [_DOCS], ["hash", "join", "stream"],
    oracle=(
        "WITH toks AS (SELECT doc_id, regexp_extract_all(lower(text), '\\S+') t FROM documents), "
        "st AS (SELECT doc_id, len(t) AS dl, "
        "len(list_filter(t, x -> x = 'hash')) AS tf0, "
        "len(list_filter(t, x -> x = 'join')) AS tf1, "
        "len(list_filter(t, x -> x = 'stream')) AS tf2 FROM toks), "
        "g AS (SELECT count(*) AS n, avg(dl) AS avgdl, "
        "count(*) FILTER (tf0 > 0) AS df0, "
        "count(*) FILTER (tf1 > 0) AS df1, "
        "count(*) FILTER (tf2 > 0) AS df2 FROM st) "
        "SELECT doc_id, round("
        "ln((n - df0 + 0.5) / (df0 + 0.5) + 1) * tf0 / (tf0 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) + "
        "ln((n - df1 + 0.5) / (df1 + 0.5) + 1) * tf1 / (tf1 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl)) + "
        "ln((n - df2 + 0.5) / (df2 + 0.5) + 1) * tf2 / (tf2 + 1.2 * (1 - 0.75 + 0.75 * dl / avgdl))"
        ", 6) AS score FROM st, g ORDER BY score DESC, doc_id ASC LIMIT 10"
    ))
_op("decontaminate", "ops.textstats.decontaminate", [_table("documents", "doc_id", "text", "source")],
    n=3, oracle=(
        "WITH toks AS (SELECT doc_id, source, regexp_extract_all(lower(text), '\\S+') t FROM documents), "
        "grams AS (SELECT DISTINCT doc_id, source, array_to_string(t[i:i+2], ' ') AS g "
        "FROM toks, UNNEST(range(1, len(t)-1)) AS r(i)), "
        "bench AS (SELECT DISTINCT g FROM grams WHERE source = 'src0') "
        "SELECT d.doc_id, count(DISTINCT d.g) AS n_hits "
        "FROM grams d JOIN bench USING (g) "
        "WHERE d.source <> 'src0' GROUP BY d.doc_id"
    ))


@_query("domain_counts", oracle=(
    # planting expression mirrors _q_domain_counts's map token-for-token
    "WITH planted AS (SELECT doc_id, text || ' ' || 'see http://site' || "
    "CAST(doc_id % 20 AS VARCHAR) || '.org/p/' || CAST(doc_id AS VARCHAR) || "
    "' and http://cdn' || CAST(doc_id % 7 AS VARCHAR) || '.net/x' AS text FROM documents), "
    "u AS (SELECT doc_id, unnest(regexp_extract_all(text, 'https?://[^\\s]+')) AS url "
    "FROM planted) SELECT regexp_extract(url, 'https?://([^/\\s]+)', 1) AS domain, "
    "CAST(count(*) AS BIGINT) AS n_urls, CAST(count(DISTINCT doc_id) AS BIGINT) AS n_docs "
    "FROM u GROUP BY domain"
))
def _q_domain_counts(sf_dir: str):
    """Per-domain URL statistics (occurrences + distinct docs). The gate
    table has no URLs, so two deterministic URLs per doc are planted
    (20 + 7 recurring domains — mirrored verbatim in the oracle SQL) and
    the extractor + grouped combine run over the planted corpus."""
    import pyarrow as pa

    from pdftext_ray.ops import textstats

    def plant(b: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        import numpy as np

        ids = b.column("doc_id")
        ids_np = ids.combine_chunks().to_numpy(zero_copy_only=False)
        s20 = pc.cast(pa.array(ids_np % 20, pa.int64()), pa.string())
        s7 = pc.cast(pa.array(ids_np % 7, pa.int64()), pa.string())
        txt = pc.binary_join_element_wise(
            b.column("text"),
            pc.binary_join_element_wise(
                "see http://site", s20, ".org/p/", pc.cast(ids, pa.string()),
                " and http://cdn", s7, ".net/x", ""
            ),
            " ",
        )
        return pa.Table.from_arrays([ids, txt], names=["doc_id", "text"])

    planted = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(plant, batch_format="pyarrow")
    return textstats.url_domain_counts(planted)


def _planted_urls(sf_dir: str):
    """(doc_id, url) — two deterministic messy URLs per doc (case noise,
    default ports, utm params, fragments; mirrored token-for-token by the
    oracle SQL) for the URL canonicalization/dedup ops. The gate table has
    no URL column, so the plant IS the op contract's input."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def plant(b: pa.Table) -> pa.Table:
        ids = b.column("doc_id").combine_chunks()
        ids_np = ids.to_numpy(zero_copy_only=False)
        s = lambda m: pc.cast(pa.array(ids_np % m, pa.int64()), pa.string())  # noqa: E731
        sid = pc.cast(ids, pa.string())
        u1 = pc.binary_join_element_wise(
            "HTTP://Site", s(20), ".ORG:80/p", s(5), "?utm_source=x&q=", s(10), "#s", sid, ""
        )
        u2_even = pc.binary_join_element_wise("https://cdn", s(7), ".NET", "")
        u2_odd = pc.binary_join_element_wise("https://cdn", s(7), ".net:443", "")
        u2 = pc.if_else(pa.array(ids_np % 2 == 0), u2_even, u2_odd)
        ids2 = pa.concat_arrays([ids, ids])
        urls = pa.concat_arrays([u1, u2])
        return pa.Table.from_arrays([ids2, urls], names=["doc_id", "url"])

    return _read(sf_dir, "documents", ["doc_id"]).map_batches(plant, batch_format="pyarrow")


_PLANTED_URLS_SQL = (
    "SELECT doc_id, 'HTTP://Site' || (doc_id % 20) || '.ORG:80/p' || (doc_id % 5) "
    "|| '?utm_source=x&q=' || (doc_id % 10) || '#s' || doc_id AS url FROM documents "
    "UNION ALL SELECT doc_id, CASE WHEN doc_id % 2 = 0 "
    "THEN 'https://cdn' || (doc_id % 7) || '.NET' "
    "ELSE 'https://cdn' || (doc_id % 7) || '.net:443' END FROM documents"
)


def _url_canon_sql() -> str:
    from pdftext_ray.ops.urls import url_canon_sql

    return (
        f"SELECT doc_id, url, {url_canon_sql('url')} AS canonical_url "
        f"FROM ({_PLANTED_URLS_SQL}) planted_urls"
    )


_op("url_canonicalize", "ops.urls.canonicalize_urls", [_planted_urls], url_col="url",
    oracle=_url_canon_sql)
_op("url_dedup", "ops.urls.url_dedup", [_planted_urls], id_col="doc_id", url_col="url",
    oracle=lambda: (
        "SELECT canonical_url, min(doc_id) AS keep_doc_id, "
        "CAST(count(*) AS BIGINT) AS dup_count FROM ("
        + _sql("url_canonicalize")
        + ") canon_urls GROUP BY canonical_url"
    ))
# top-50 bigram collocations by fixed-point PMI (min_count=5)
_op("pmi_collocations", "ops.textstats.pmi_collocations", [_DOCS], min_count=5, k=50,
    oracle=_golden("pmi", "gram, n, pmi"))


@_query("bpe_train", oracle=_golden("bpe", '"rank", "left", "right", merged, "count"'))
def _q_bpe_train(sf_dir: str):
    """BPE vocab induction (30 merges): corpus-sized work is ONE
    distributed word count; the merge loop runs on the bounded vocab
    (lm_perplexity's honest-collect contract). Golden = independent
    Counter-based trainer under the shared spec."""
    import ray.data

    from pdftext_ray.ops import textstats

    _require_gate_corpus(sf_dir)  # the golden merge list derives from sf0.01
    return ray.data.from_arrow(
        textstats.bpe_train(_read(sf_dir, "documents", ["doc_id", "text"]), n_merges=30)
    )


@_query("main_content", oracle=_golden("main_content", "doc_id, main_text, n_blocks_kept"))
def _q_main_content(sf_dir: str):
    """HTML boilerplate strip / DOM-heuristic main-content extraction over
    the labeled synthetic HTML corpus (ops/webdoc.py) — the north rule's
    HTML side. Oracle = the planted ground truth (golden parquet)."""
    import ray.data

    from pdftext_ray.ops import webdoc

    _require_gate_corpus(sf_dir)
    n = max(60, _corpus_size(sf_dir) // 5)
    out = webdoc.extract_main_content(ray.data.from_arrow(webdoc.synth_html_table(n)))
    return out.select_columns(["doc_id", "main_text", "n_blocks_kept"])


# ---------------------------------------------------------------------------
# sketches / statistics
# ---------------------------------------------------------------------------

@_query("sketch_counts", oracle=lambda: (
    f"SELECT 'hll' AS sketch, '*' AS skey, approx_n AS est FROM read_parquet('{_golden_path('hll')}') "
    "UNION ALL "
    f"SELECT 'cms' AS sketch, CAST(value AS VARCHAR) AS skey, CAST(est_count AS DOUBLE) AS est FROM read_parquet('{_golden_path('cms')}')"
))
def _q_sketch_counts(sf_dir: str):
    """HLL distinct-count + CMS heavy hitters in one tagged union
    (sketch, skey, est) — both mergeable-sketch ops, one driver row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    hll = _run("approx_distinct_events", sf_dir)
    cms = _run("cms_heavy_users", sf_dir)

    def tag_hll(t: pa.Table) -> pa.Table:
        return pa.table({
            "sketch": _const_str("hll", len(t)),
            "skey": _const_str("*", len(t)),
            "est": pc.cast(t.column("approx_n"), pa.float64()),
        })

    def tag_cms(t: pa.Table) -> pa.Table:
        return pa.table({
            "sketch": _const_str("cms", len(t)),
            "skey": pc.cast(t.column("value"), pa.string()),
            "est": pc.cast(t.column("est_count"), pa.float64()),
        })

    return hll.map_batches(tag_hll, batch_format="pyarrow").union(
        cms.map_batches(tag_cms, batch_format="pyarrow")
    )


# HLL registers merge by max → layout-independent, pinned by the scalar golden
_op("approx_distinct_events", "ops.stats.approx_distinct", [_table("events", "event_id")],
    "event_id", p=10, oracle=_golden("hll", "approx_n"))
# CMS heavy hitters (threshold 80 events): counter addition commutes →
# layout-independent, pinned by the scalar golden
_op("cms_heavy_users", "ops.stats.cms_heavy_hitters", [_table("events", "user_id")], "user_id",
    threshold=80, oracle=_golden("cms", "value, est_count"))


@_query("quantiles", oracle=lambda: (
    "SELECT 'exact' AS method, '*' AS grp, CAST(pct AS DOUBLE) AS pct, value, n_rows AS n "
    "FROM (" + _sql("length_percentiles") + ") ex_sub "
    "UNION ALL SELECT 'exact_by_lang' AS method, lang AS grp, CAST(pct AS DOUBLE), value, n_rows "
    "FROM (" + _sql("length_percentiles_by_lang") + ") bl_sub "
    "UNION ALL SELECT 'kmv' AS method, '*' AS grp, CAST(pct AS DOUBLE), value, sample_n "
    "FROM (" + _sql("sample_quantiles") + ") kmv_sub"
))
def _q_quantiles(sf_dir: str):
    """Exact global percentiles + exact per-group percentiles + mergeable
    KMV sample quantiles, tagged (method, grp, pct, value, n)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    exact = _run("length_percentiles", sf_dir)
    bylang = _run("length_percentiles_by_lang", sf_dir)
    kmv = _run("sample_quantiles", sf_dir)

    def shape(method: str, grp_col: str | None, n_col: str):
        def fn(t: pa.Table) -> pa.Table:
            grp = (
                pc.cast(t.column(grp_col), pa.string())
                if grp_col
                else _const_str("*", len(t))
            )
            return pa.table({
                "method": _const_str(method, len(t)),
                "grp": grp,
                "pct": pc.cast(t.column("pct"), pa.float64()),
                "value": pc.cast(t.column("value"), pa.int64()),
                "n": pc.cast(t.column(n_col), pa.int64()),
            })

        return fn

    # exact_percentiles / sample_quantiles return small pa.Tables (driver-
    # side finish over bounded histograms); grouped_percentiles is a Dataset
    import ray.data

    return (
        ray.data.from_arrow(shape("exact", None, "n_rows")(exact))
        .union(bylang.map_batches(shape("exact_by_lang", "lang", "n_rows"), batch_format="pyarrow"))
        .union(ray.data.from_arrow(shape("kmv", None, "sample_n")(kmv)))
    )


# exact p50/p90/p99: per-batch value histograms, O(#distinct) driver finish;
# SQL quantile_disc's ceil(p*n) rank rule bit-for-bit
_op("length_percentiles", "ops.stats.exact_percentiles", [_table("documents", "doc_id", "n_chars")],
    "n_chars", (0.5, 0.9, 0.99), oracle=(
        # quantile params must be constants in DuckDB → one arm per pct
        "SELECT 0.5 AS pct, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS value, "
        "count(*) AS n_rows FROM documents UNION ALL "
        "SELECT 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT), count(*) FROM documents "
        "UNION ALL "
        "SELECT 0.99, CAST(quantile_disc(n_chars, 0.99) AS BIGINT), count(*) FROM documents"
    ))
_op("length_percentiles_by_lang", "ops.stats.grouped_percentiles",
    [_table("documents", "doc_id", "lang", "n_chars")], "lang", "n_chars", (0.5, 0.9),
    oracle=(
        "SELECT lang, 0.5 AS pct, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS value, "
        "count(*) AS n_rows FROM documents GROUP BY lang UNION ALL "
        "SELECT lang, 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT), count(*) "
        "FROM documents GROUP BY lang"
    ))
# bottom-k (KMV) hash sample; the oracle draws the identical sample in SQL
# (ORDER BY hash LIMIT k)
_op("sample_quantiles", "ops.stats.sample_quantiles", [_table("documents", "doc_id", "n_chars")],
    "n_chars", percentiles=(0.5, 0.9, 0.99), sample_size=256, oracle=(
        # the identical bottom-256 hash sample drawn in SQL, then the
        # same ceil(p*n) discrete-rank rule (= quantile_disc)
        "WITH sample AS (SELECT n_chars FROM documents ORDER BY "
        "(((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296), doc_id LIMIT 256) "
        "SELECT 0.5 AS pct, CAST(quantile_disc(n_chars, 0.5) AS BIGINT) AS value, "
        "count(*) AS sample_n FROM sample UNION ALL "
        "SELECT 0.9, CAST(quantile_disc(n_chars, 0.9) AS BIGINT), count(*) FROM sample "
        "UNION ALL "
        "SELECT 0.99, CAST(quantile_disc(n_chars, 0.99) AS BIGINT), count(*) FROM sample"
    ))
# SQL quantile_cont semantics over the bounded value-histogram reduction
_op("interp_percentiles", "ops.stats.interp_percentiles", [_table("documents", "doc_id", "n_chars")],
    "n_chars", (0.25, 0.5, 0.9), oracle=(
        # quantile_cont = the interpolated (CRN−RN)·v[FRN]+(RN−FRN)·v[CRN]
        # arithmetic the engine replicates exactly (ops/stats.py)
        "SELECT 0.25 AS pct, round(quantile_cont(n_chars, 0.25), 6) AS value, count(*) AS n_rows FROM documents "
        "UNION ALL SELECT 0.5, round(quantile_cont(n_chars, 0.5), 6), count(*) FROM documents "
        "UNION ALL SELECT 0.9, round(quantile_cont(n_chars, 0.9), 6), count(*) FROM documents"
    ))
# equal-width 10-bucket histogram: identical bucket-edge double arithmetic
# on both sides
_op("histogram_buckets", "ops.stats.histogram_buckets", [_table("documents", "doc_id", "n_chars")],
    "n_chars", n_buckets=10, oracle=(
        "WITH mm AS (SELECT min(n_chars) AS vlo, max(n_chars) AS vhi FROM documents), "
        "bb AS (SELECT least(CAST(floor((n_chars - vlo) * 10 / (vhi - vlo)) AS BIGINT), 9) "
        "AS bucket FROM documents, mm), "
        "cc AS (SELECT bucket, count(*) AS n FROM bb GROUP BY bucket), "
        "gg AS (SELECT unnest(range(10)) AS bucket) "
        "SELECT gg.bucket, round(mm.vlo + gg.bucket * (mm.vhi - mm.vlo) / 10, 6) AS lo, "
        "round(mm.vlo + (gg.bucket + 1) * (mm.vhi - mm.vlo) / 10, 6) AS hi, "
        "coalesce(cc.n, 0) AS n "
        "FROM gg CROSS JOIN mm LEFT JOIN cc ON gg.bucket = cc.bucket"
    ))
# Pearson corr from exact integer moments (cents-scaled): no float
# accumulation on either side
_op("exact_corr", "ops.stats.exact_corr", [_table("lineitem", "l_quantity", "l_discount")],
    "l_quantity", "l_discount", oracle=(
        # exact HUGEINT moments; int→double, sqrt, divide are all IEEE
        # correctly-rounded, so both sides produce the same double —
        # SQL's own corr() float accumulation would NOT
        "WITH s AS (SELECT count(*) AS n, "
        "sum(CAST(round(l_quantity * 100, 0) AS HUGEINT)) AS sx, "
        "sum(CAST(round(l_discount * 100, 0) AS HUGEINT)) AS sy, "
        "sum(CAST(round(l_quantity * 100, 0) AS HUGEINT) * CAST(round(l_quantity * 100, 0) AS HUGEINT)) AS sxx, "
        "sum(CAST(round(l_discount * 100, 0) AS HUGEINT) * CAST(round(l_discount * 100, 0) AS HUGEINT)) AS syy, "
        "sum(CAST(round(l_quantity * 100, 0) AS HUGEINT) * CAST(round(l_discount * 100, 0) AS HUGEINT)) AS sxy "
        "FROM lineitem) "
        "SELECT CAST(n AS BIGINT) AS n, "
        "round(CAST(n * sxy - sx * sy AS DOUBLE) / "
        "(sqrt(CAST(n * sxx - sx * sx AS DOUBLE)) * sqrt(CAST(n * syy - sy * sy AS DOUBLE))), 6) AS corr "
        "FROM s"
    ))
# exact int64 moment reduction, then a stateless map
_op("zscore_chars", "ops.stats.zscore_normalize", [_table("documents", "doc_id", "n_chars")],
    "n_chars", oracle=(
        # identical double-precision expression to ops.stats (exact int
        # sums, then (x - s/c) / sqrt(ss/c - (s/c)^2)) — bit-reproducible
        "WITH s AS (SELECT CAST(sum(n_chars) AS DOUBLE) s, "
        "CAST(sum(n_chars * n_chars) AS DOUBLE) ss, CAST(count(*) AS DOUBLE) c "
        "FROM documents) "
        "SELECT doc_id, n_chars, round((n_chars - s / c) / sqrt(ss / c - (s / c) * (s / c)), 6) "
        "AS zscore FROM documents, s"
    ))
# per-group HLL: commutative max merge ⇒ layout/retry independent; the
# golden rebuilds each group's registers scalar-side
_op("grouped_hll", "ops.stats.grouped_approx_distinct", [_table("events", "event_type", "user_id")],
    "event_type", "user_id", p=10, oracle=_golden("grouped_hll", "event_type, approx_n"))


DESCRIBE_COLUMNS = ["doc_id", "text", "lang", "source", "n_chars"]


@_query("describe_table", oracle=_golden("describe", "*"))
def _q_describe_table(sf_dir: str):
    """Ingest-QA table profile: one pass of mergeable per-column partials
    (counts, nulls, min/max, HLL registers); golden recomputes whole-column
    scalar-side."""
    import ray.data

    from pdftext_ray.ops import stats

    return ray.data.from_arrow(
        stats.describe_table(_read(sf_dir, "documents", None), DESCRIBE_COLUMNS)
    )


# ---------------------------------------------------------------------------
# graph / decomposition
# ---------------------------------------------------------------------------

@_query("graph_pagerank", oracle=_golden("pagerank", "node, rank_fp, rank"))
def _q_graph_pagerank(sf_dir: str):
    """Fixed-point PageRank over the supplier→part edge graph (8 power
    iterations; all rank arithmetic int64, so the iterative distributed
    computation is layout-independent and the scalar golden matches the
    rank_fp column EXACTLY — see ops/graph.py). Parts are offset into a
    disjoint node-id space and are all dangling, exercising the dangling-
    mass redistribution."""
    import pyarrow as pa

    from pdftext_ray.ops import graph

    def to_edges(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({
            "src": t.column("l_suppkey"),
            "dst": pc.add(t.column("l_partkey"), 1_000_000),
        })

    edges = _read(sf_dir, "lineitem", ["l_suppkey", "l_partkey"]).map_batches(
        to_edges, batch_format="pyarrow"
    )
    return graph.pagerank(edges, n_iter=8)


@_query("pca_top_component", oracle=_golden("pca", "dim_idx, weight, eigenvalue, n_rows"))
def _q_pca_top_component(sf_dir: str):
    """Distributed top-PC: exact integer second moments per block →
    arbitrary-precision combine → one float conversion → pinned power
    iteration — bit-exact vs the single-block scalar golden at any
    layout."""
    import ray.data

    from pdftext_ray.ops import cluster

    return ray.data.from_arrow(
        cluster.pca_top_component(_read(sf_dir, "embeddings", ["vec_id", "embedding"]))
    )


# ---------------------------------------------------------------------------
# deduplication
# ---------------------------------------------------------------------------

@_query("dedup_exact_prefix", oracle=lambda: (
    "SELECT 'exact' AS method, text_hash AS key_hash, keep_doc_id, dup_count "
    "FROM (" + _sql("dedup_exact") + ") de_sub "
    "UNION ALL SELECT 'prefix' AS method, prefix_hash AS key_hash, keep_doc_id, dup_count "
    "FROM (" + _sql("dedup_prefix") + ") dp_sub"
))
def _q_dedup_exact_prefix(sf_dir: str):
    """Exact-hash dedup ∪ prefix-hash dedup, tagged by method — the two
    hash-partitioned keep-first dedup variants in one driver row."""
    import pyarrow as pa
    import pyarrow.compute as pc

    exact = _run("dedup_exact", sf_dir)
    prefix = _run("dedup_prefix", sf_dir)

    def shape(method: str, key_col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "method": _const_str(method, len(t)),
                "key_hash": pc.cast(t.column(key_col), pa.string()),
                "keep_doc_id": pc.cast(t.column("keep_doc_id"), pa.int64()),
                "dup_count": pc.cast(t.column("dup_count"), pa.int64()),
            })

        return fn

    return exact.map_batches(shape("exact", "text_hash"), batch_format="pyarrow").union(
        prefix.map_batches(shape("prefix", "prefix_hash"), batch_format="pyarrow")
    )


_op("dedup_exact", "ops.dedup.exact_dedup", [_DOCS], oracle=(
    "SELECT md5(text) AS text_hash, min(doc_id) AS keep_doc_id, "
    "count(*) AS dup_count FROM documents GROUP BY md5(text)"
))
_op("dedup_prefix", "ops.dedup.prefix_dedup", [_DOCS], n_tokens=20, oracle=(
    "SELECT md5(array_to_string(list_slice(regexp_extract_all(text, '\\S+'), 1, 20), ' ')) AS prefix_hash, "
    "min(doc_id) AS keep_doc_id, count(*) AS dup_count FROM documents "
    "GROUP BY md5(array_to_string(list_slice(regexp_extract_all(text, '\\S+'), 1, 20), ' '))"
))


def _parity_filter(col: str, parity: int):
    """map_batches fn keeping rows whose int ``col`` has the given parity —
    the even/odd baseline-vs-increment split the incremental-dedup gate
    queries share (one definition; the worker imports resolve at call
    time)."""
    def fn(t):
        import pyarrow as pa
        import pyarrow.compute as pc

        keep = pc.equal(pc.bit_wise_and(t.column(col), pa.scalar(1, pa.int64())), parity)
        return t.filter(keep)

    return fn


@_query("incremental_dedup", oracle=(
    "WITH base AS (SELECT DISTINCT md5(text) AS text_hash FROM documents WHERE doc_id % 2 = 0), "
    "novel AS (SELECT doc_id, md5(text) AS text_hash FROM documents "
    "WHERE doc_id % 2 = 1 AND md5(text) NOT IN (SELECT text_hash FROM base)) "
    "SELECT text_hash, min(doc_id) AS keep_doc_id, count(*) AS dup_count "
    "FROM novel GROUP BY text_hash"
))
def _q_incremental_dedup(sf_dir: str):
    """Incremental dedup — the daily-crawl shape: even-id docs stand in for
    yesterday's corpus, represented ONLY by their content-hash table;
    odd-id docs are the new increment. Survivors = novel hashes, keep-min
    within the increment (`ops/dedup.incremental_exact_dedup`)."""
    from pdftext_ray.ops import dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    baseline = docs.map_batches(_parity_filter("doc_id", 0), batch_format="pyarrow").map_batches(
        lambda b: dedup._text_hash_batch(b, "text").select(["text_hash"]),
        batch_format="pyarrow",
    )
    new_docs = docs.map_batches(_parity_filter("doc_id", 1), batch_format="pyarrow")
    return dedup.incremental_exact_dedup(new_docs, baseline)


@_query("incremental_minhash", oracle=_golden("incminhash", "doc_id, dup_of, est_jaccard"))
def _q_incremental_minhash(sf_dir: str):
    """Incremental NEAR-dup verdicts (the scale path of incremental_dedup):
    even-id docs are the persisted baseline — present only as a minhash
    signature table — odd-id docs the increment. Oracle: independent scalar
    golden (signatures, collapse, banding and argmax re-derived with plain
    Python loops — pipelines/goldens.expected_incremental_minhash_table)."""
    from pdftext_ray.ops import dedup

    # golden derives from the gate documents' TEXT → content guard
    # (invariant 12, the simhash/winnow pattern)
    _require_gate_corpus(sf_dir, check_content=True)
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    # materialized = the persisted artifact shape the op's contract names
    # (a stored table, not a lazy MinHasher lineage)
    baseline_sigs = dedup.minhash_signatures(
        docs.map_batches(_parity_filter("doc_id", 0), batch_format="pyarrow")
    ).materialize()
    new_docs = docs.map_batches(_parity_filter("doc_id", 1), batch_format="pyarrow")
    return dedup.incremental_minhash_dedup(new_docs, baseline_sigs, threshold=0.5)


@_query("incremental_embedding", oracle=(
    "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) v FROM embeddings), "
    "b AS (SELECT * FROM e WHERE vec_id % 2 = 0), "
    "n AS (SELECT * FROM e WHERE vec_id % 2 = 1), "
    "c AS (SELECT n.vec_id, b.vec_id AS dup_of, "
    "round(list_cosine_similarity(n.v, b.v), 6) AS cosine FROM n, b "
    "WHERE list_cosine_similarity(n.v, b.v) >= 0.5 "
    "UNION ALL SELECT n1.vec_id, n2.vec_id, "
    "round(list_cosine_similarity(n1.v, n2.v), 6) FROM n n1, n n2 "
    "WHERE n2.vec_id < n1.vec_id AND list_cosine_similarity(n1.v, n2.v) >= 0.5), "
    "r AS (SELECT *, row_number() OVER (PARTITION BY vec_id "
    "ORDER BY cosine DESC, dup_of ASC) AS rn FROM c) "
    "SELECT vec_id, dup_of, cosine FROM r WHERE rn = 1"
))
def _q_incremental_embedding(sf_dir: str):
    """Embedding-modality incremental dedup in exact-verification
    configuration (probe_radius == n_planes — every pair co-bucketed, so
    the bucketize → probe → cosine-verify → per-vector argmax machinery
    yields exactly the SQL argmax over the even/odd split)."""
    from pdftext_ray.ops import dedup

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return dedup.incremental_embedding_dedup(
        emb.map_batches(_parity_filter("vec_id", 1), batch_format="pyarrow"),
        emb.map_batches(_parity_filter("vec_id", 0), batch_format="pyarrow"),
        threshold=0.5, n_planes=4, probe_radius=4,
    )


@_query("incremental_family", oracle=lambda: (
    # tagged union of the three incremental-dedup modality oracles;
    # first SELECT fixes the union column names (method, key, ref_id,
    # metric) — matching the Ray side's explicit casts
    "SELECT 'exact' AS method, text_hash AS key, keep_doc_id AS ref_id, "
    "CAST(dup_count AS DOUBLE) AS metric FROM (" + _sql("incremental_dedup") + ") if_ex "
    "UNION ALL SELECT 'minhash', CAST(doc_id AS VARCHAR), dup_of, est_jaccard "
    "FROM (" + _sql("incremental_minhash") + ") if_mh "
    "UNION ALL SELECT 'embedding', CAST(vec_id AS VARCHAR), dup_of, cosine "
    "FROM (" + _sql("incremental_embedding") + ") if_em"
))
def _q_incremental_family(sf_dir: str):
    """The three incremental-dedup modalities — exact content hashes,
    MinHash signatures, embedding vectors — in ONE tagged-union driver row
    (the ``dedup_exact_prefix`` pattern): the daily-crawl increment shape
    under the driver's hard signal. Legs are byte-identical to the extras
    queries ``incremental_dedup`` / ``incremental_minhash`` /
    ``incremental_embedding`` (which stay pytest-gated individually)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    exact = _q_incremental_dedup(sf_dir)
    mh = _q_incremental_minhash(sf_dir)
    emb = _q_incremental_embedding(sf_dir)

    def shape(method: str, key_col: str, ref_col: str, metric_col: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "method": _const_str(method, len(t)),
                "key": pc.cast(t.column(key_col), pa.string()),
                "ref_id": pc.cast(t.column(ref_col), pa.int64()),
                "metric": pc.cast(t.column(metric_col), pa.float64()),
            })

        return fn

    return (
        exact.map_batches(
            shape("exact", "text_hash", "keep_doc_id", "dup_count"), batch_format="pyarrow"
        )
        .union(mh.map_batches(
            shape("minhash", "doc_id", "dup_of", "est_jaccard"), batch_format="pyarrow"
        ))
        .union(emb.map_batches(
            shape("embedding", "vec_id", "dup_of", "cosine"), batch_format="pyarrow"
        ))
    )


@_query("incremental_cc", oracle=(
    # re-derive the incremental-CC contract from first principles: a
    # baseline-only closure gives the persisted labels, a full closure
    # the ground truth; contract the increment edges through the
    # baseline labels, and every touched contracted node is either a
    # baseline rep (remap row, only when its id changes) or a newly
    # labeled node (assign row). Matches ops/cluster.
    # incremental_connected_components + the min-member invariant.
    "WITH RECURSIVE p AS (" + _minhash_pairs_sql(0.4) + "), "
    "be AS (SELECT doc_a a, doc_b b FROM p WHERE doc_a % 2 = 0 AND doc_b % 2 = 0), "
    "ie AS (SELECT doc_a a, doc_b b FROM p WHERE doc_a % 2 = 1 OR doc_b % 2 = 1), "
    "bedges AS (SELECT a, b FROM be UNION SELECT b, a FROM be), "
    "bcl(node, reach) AS (SELECT a, a FROM bedges UNION "
    "SELECT c.node, e.b FROM bcl c JOIN bedges e ON c.reach = e.a), "
    "blab AS (SELECT node, min(reach) AS cid FROM bcl GROUP BY node), "
    "aedges AS (SELECT a, b FROM bedges UNION SELECT a, b FROM ie UNION SELECT b, a FROM ie), "
    "acl(node, reach) AS (SELECT a, a FROM aedges UNION "
    "SELECT c.node, e.b FROM acl c JOIN aedges e ON c.reach = e.a), "
    "alab AS (SELECT node, min(reach) AS cid FROM acl GROUP BY node), "
    "mapped AS (SELECT coalesce(ba.cid, ie.a) AS ma, coalesce(bb.cid, ie.b) AS mb "
    "FROM ie LEFT JOIN blab ba ON ba.node = ie.a LEFT JOIN blab bb ON bb.node = ie.b), "
    "medges AS (SELECT ma, mb FROM mapped WHERE ma != mb), "
    # NOT a bare UNION: inside a WITH RECURSIVE clause DuckDB gives
    # `A UNION B` CTEs recursive-union semantics and skips the global
    # dedup, so distinct-ness must be explicit
    "touched AS (SELECT DISTINCT node FROM "
    "(SELECT ma AS node FROM medges UNION ALL SELECT mb FROM medges) tu), "
    "fin AS (SELECT t.node, al.cid FROM touched t JOIN alab al ON al.node = t.node), "
    "cls AS (SELECT f.node, f.cid, (bl.node IS NOT NULL) AS is_rep "
    "FROM fin f LEFT JOIN blab bl ON bl.node = f.node AND bl.cid = f.node) "
    "SELECT CASE WHEN is_rep THEN 'remap' ELSE 'assign' END AS kind, "
    "node, cid AS cluster_id FROM cls WHERE NOT (is_rep AND cid = node)"
))
def _q_incremental_cc(sf_dir: str):
    """Cluster stability across crawl increments (the fourth incremental
    modality): the exact MinHash pair set splits into BASELINE edges (both
    endpoints even — yesterday's corpus) and INCREMENT edges; baseline
    cluster labels are computed once as the persisted artifact, then
    ``incremental_connected_components`` assigns the increment against the
    LABEL TABLE ONLY — the baseline graph is never recomputed. Output: the
    delta (kind = assign|remap, node, cluster_id). Oracle: two recursive
    transitive closures (baseline-only and full) re-derive the contract in
    SQL."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops import cluster, dedup

    pairs = dedup.minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.4, exact_recall=True
    ).materialize()  # consumed by both split sides; pairs ≪ corpus

    def split(want_base: bool):
        def fn(t: pa.Table) -> pa.Table:
            both_even = pc.and_(
                pc.equal(pc.bit_wise_and(t.column("doc_a"), pa.scalar(1, pa.int64())), 0),
                pc.equal(pc.bit_wise_and(t.column("doc_b"), pa.scalar(1, pa.int64())), 0),
            )
            return t.filter(both_even if want_base else pc.invert(both_even))

        return fn

    base_pairs = pairs.map_batches(split(True), batch_format="pyarrow")
    inc_pairs = pairs.map_batches(split(False), batch_format="pyarrow")
    labels = cluster.connected_components_distributed(base_pairs).materialize()
    delta = cluster.incremental_connected_components(inc_pairs, labels)

    def shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "kind": pc.cast(t.column("kind"), pa.string()),
            "node": pc.cast(t.column("node"), pa.int64()),
            "cluster_id": pc.cast(t.column("cluster_id"), pa.int64()),
        })

    return delta.map_batches(shape, batch_format="pyarrow")


# exact_recall unions inverted-shingle-index candidates into the LSH banding
# candidates, so the verified output is exactly the ≥-threshold pair set the
# all-pairs SQL oracle computes — on ANY corpus, not just one where banding
# happens to catch every j≈0.5 pair (ADVICE r1)
_op("dedup_minhash", "ops.dedup.minhash_lsh_pairs", [_DOCS], threshold=0.5, exact_recall=True,
    oracle=_minhash_pairs_sql(0.5))


@_query("dedup_simhash", oracle=_golden("simhash", "doc_a, doc_b, hamming"))
def _q_dedup_simhash(sf_dir: str):
    _require_gate_corpus(sf_dir, check_content=True)
    from pdftext_ray.ops import dedup

    return dedup.simhash_pairs(_read(sf_dir, "documents", ["doc_id", "text"]), max_hamming=3)


_op("ngram_jaccard", "ops.dedup.ngram_jaccard_pairs", [_DOCS], threshold=0.5,
    oracle=(
        "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') t FROM documents), "
        "g AS (SELECT doc_id, list_distinct(CASE WHEN len(t) >= 3 THEN "
        "list_transform(range(1, len(t) - 1), i -> t[i] || ' ' || t[i+1] || ' ' || t[i+2]) "
        "ELSE [] END) grams FROM toks) "
        "SELECT a.doc_id AS id_a, b.doc_id AS id_b, "
        "round(CAST(len(list_intersect(a.grams, b.grams)) AS DOUBLE) / greatest(len(list_distinct(list_concat(a.grams, b.grams))), 1), 6) AS jaccard "
        "FROM g a JOIN g b ON a.doc_id < b.doc_id "
        "WHERE CAST(len(list_intersect(a.grams, b.grams)) AS DOUBLE) / greatest(len(list_distinct(list_concat(a.grams, b.grams))), 1) >= 0.5"
    ))


@_query("embedding_dup_pairs", oracle=lambda: (
    "SELECT 'brute' AS method, id_a, id_b, cosine FROM (" + _sql("embedding_pairs") + ") br_sub "
    "UNION ALL SELECT 'lsh' AS method, id_a, id_b, cosine FROM (" + _sql("dedup_embedding") + ") ls_sub"
))
def _q_embedding_dup_pairs(sf_dir: str):
    """Brute-force O(n²) cosine pairs (the guarded exact baseline) ∪
    hyperplane-LSH pairs in full-probe exact mode, tagged by method."""
    import pyarrow as pa
    import pyarrow.compute as pc

    brute = _run("embedding_pairs", sf_dir)
    lsh = _run("dedup_embedding", sf_dir)

    def shape(method: str):
        def fn(t: pa.Table) -> pa.Table:
            return pa.table({
                "method": _const_str(method, len(t)),
                "id_a": pc.cast(t.column("id_a"), pa.int64()),
                "id_b": pc.cast(t.column("id_b"), pa.int64()),
                "cosine": pc.cast(t.column("cosine"), pa.float64()),
            })

        return fn

    return brute.map_batches(shape("brute"), batch_format="pyarrow").union(
        lsh.map_batches(shape("lsh"), batch_format="pyarrow")
    )


_op("embedding_pairs", "ops.dedup.embedding_pairs_bruteforce", [_EMB], threshold=0.4,
    oracle=(
        "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) v FROM embeddings) "
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
        "round(list_cosine_similarity(a.v, b.v), 4) AS cosine "
        "FROM e a JOIN e b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.v, b.v) >= 0.4"
    ))
# hyperplane LSH in exact-verification configuration: probe_radius ==
# n_planes co-buckets every pair (the similarity_ivf_exact trick), so the
# output is exactly the ≥-threshold pair set (VERDICT r1 item 2). The
# approximate scale configuration (12 planes, radius 1) stays the default
_op("dedup_embedding", "ops.dedup.embedding_dup_pairs", [_EMB], threshold=0.5, n_planes=4,
    probe_radius=4, oracle=(
        "WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) v FROM embeddings) "
        "SELECT a.vec_id AS id_a, b.vec_id AS id_b, "
        "round(list_cosine_similarity(a.v, b.v), 6) AS cosine "
        "FROM e a JOIN e b ON a.vec_id < b.vec_id "
        "WHERE list_cosine_similarity(a.v, b.v) >= 0.5"
    ))


@_query("dedup_clusters", oracle=(
    # recursive transitive closure over the SAME exact pair set the
    # distributed star-contraction consumes; cluster id = min member
    "WITH RECURSIVE p AS (" + _minhash_pairs_sql(0.4) + "), "
    "edges AS (SELECT doc_a a, doc_b b FROM p UNION SELECT doc_b, doc_a FROM p), "
    "closure(node, reach) AS ("
    "SELECT a, a FROM edges UNION "
    "SELECT c.node, e.b FROM closure c JOIN edges e ON c.reach = e.a) "
    "SELECT node AS doc_id, min(reach) AS cluster_id FROM closure GROUP BY node"
))
def _q_dedup_clusters(sf_dir: str):
    """MinHash near-dup pairs → DISTRIBUTED connected components (star
    contraction, ops/cluster.py:74) → cluster ids. The shipped scale path is
    the audited one (VERDICT r1 item 5); the SQL oracle recomputes the
    components with a recursive transitive-closure CTE over the same exact
    pair set."""
    from pdftext_ray.ops import cluster, dedup

    pairs = dedup.minhash_lsh_pairs(
        _read(sf_dir, "documents", ["doc_id", "text"]), threshold=0.4, exact_recall=True
    )
    return cluster.connected_components_distributed(pairs)


# MinHash pairs → distributed components → per-cluster argmax (longest doc,
# tie lowest id), singletons kept
_op("dedup_keepbest", "ops.dedup.fuzzy_dedup_keepbest", [_DOCS], threshold=0.4,
    oracle=(
        # same closure as dedup_clusters, then a window-fn argmax keeps
        # the longest doc per cluster (tie → lowest id); singletons pass
        "WITH RECURSIVE p AS (" + _minhash_pairs_sql(0.4) + "), "
        "edges AS (SELECT doc_a a, doc_b b FROM p UNION SELECT doc_b, doc_a FROM p), "
        "closure(node, reach) AS ("
        "SELECT a, a FROM edges UNION "
        "SELECT c.node, e.b FROM closure c JOIN edges e ON c.reach = e.a), "
        "cl AS (SELECT node AS doc_id, min(reach) AS cluster_id FROM closure GROUP BY node), "
        "tok AS (SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n "
        "FROM documents), "
        "cm AS (SELECT c.doc_id, c.cluster_id, t.n FROM cl c JOIN tok t USING (doc_id)), "
        "win AS (SELECT doc_id, n, CAST(count(*) OVER (PARTITION BY cluster_id) AS BIGINT) AS sz, "
        "row_number() OVER (PARTITION BY cluster_id ORDER BY n DESC, doc_id ASC) AS rn FROM cm) "
        "SELECT doc_id, n AS n_tokens, sz AS n_dups FROM win WHERE rn = 1 "
        "UNION ALL SELECT t.doc_id, t.n, CAST(1 AS BIGINT) FROM tok t "
        "LEFT JOIN cl USING (doc_id) WHERE cl.doc_id IS NULL"
    ))
# SemDeDup: k-means clusters (kmeans_clusters' determinism contract), then
# within-cluster cosine pruning; the oracle recomputes the drop rule over
# the kmeans golden
_op("semantic_dedup", "ops.dedup.semantic_dedup", [_EMB], threshold=0.4,
    oracle=lambda: (
        f"WITH a AS (SELECT vec_id, cluster FROM read_parquet('{_golden_path('kmeans')}')) "
        "SELECT e.vec_id, a1.cluster FROM embeddings e JOIN a a1 ON a1.vec_id = e.vec_id "
        "WHERE NOT EXISTS ("
        "SELECT 1 FROM embeddings e2 JOIN a a2 ON a2.vec_id = e2.vec_id "
        "WHERE a2.cluster = a1.cluster AND e2.vec_id < e.vec_id "
        "AND list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(e2.embedding AS DOUBLE[])) > 0.4)"
    ))
# first-seen dedup against a sharded actor index: the gate compares the
# ORDER-INDEPENDENT contract (per-text totals + survivor count); the
# survivor CHOICE follows arrival order by design
_op("streaming_dedup", "ops.streaming.streaming_dedup_counts", [_DOCS],
    oracle=(
        "SELECT md5(text) AS text_hash, count(*) AS dup_count "
        "FROM documents GROUP BY md5(text)"
    ))
# windowed exact-substring dedup (Lee et al. 2022): every non-first
# occurrence of a duplicated 8-token window goes. ops/dedup.substring_dedup's
# docstring defines the token-level semantics the SQL mirrors; its
# doc_id*1000000+i canonical encoding assumes <1M tokens per doc
_op("substring_dedup", "ops.dedup.substring_dedup", [_DOCS], k=8, oracle=(
    "WITH toks AS (SELECT doc_id, regexp_extract_all(text, '\\S+') AS t FROM documents), "
    "win AS (SELECT doc_id, i, array_to_string(t[i:i+7], ' ') AS w "
    "FROM toks, UNNEST(range(1, len(t)-8+2)) AS r(i)), "
    "canon AS (SELECT w, min(doc_id*1000000+i) AS c FROM win GROUP BY w HAVING count(*) > 1), "
    "rem AS (SELECT DISTINCT win.doc_id, j "
    "FROM win JOIN canon ON win.w = canon.w AND win.doc_id*1000000+win.i <> canon.c, "
    "UNNEST(range(win.i, win.i+8)) AS rr(j)), "
    "tokrows AS (SELECT doc_id, j, t[j] AS tok FROM toks, UNNEST(range(1, len(t)+1)) AS tok_(j)), "
    "kept AS (SELECT tokrows.doc_id, "
    "coalesce(string_agg(CASE WHEN rem.j IS NULL THEN tokrows.tok END, ' ' ORDER BY tokrows.j), '') AS text, "
    "CAST(count(rem.j) AS BIGINT) AS n_removed "
    "FROM tokrows LEFT JOIN rem ON rem.doc_id = tokrows.doc_id AND rem.j = tokrows.j "
    "GROUP BY tokrows.doc_id) "
    "SELECT doc_id, text, n_removed FROM kept "
    "UNION ALL SELECT doc_id, '' AS text, CAST(0 AS BIGINT) AS n_removed FROM toks WHERE len(t) = 0"
))


@_query("paragraph_dedup", oracle=(
    # C4-style keep-first paragraph dedup over 10-token windows; the
    # chunking CTE mirrors chunk_text_batch token-for-token
    "WITH chunked AS (SELECT doc_id, array_to_string("
    "list_transform(range(1, CAST(ceil(len(toks) / 10.0) AS BIGINT) + 1), "
    "i -> array_to_string(list_slice(toks, (i-1)*10 + 1, i*10), ' ')), chr(10)) AS text "
    "FROM (SELECT doc_id, regexp_extract_all(text, '\\S+') toks FROM documents)), "
    "p AS (SELECT doc_id, unnest(range(1, len(parts)+1)) - 1 AS para_idx, unnest(parts) AS para "
    "FROM (SELECT doc_id, string_split(text, chr(10)) parts FROM chunked)), "
    "r AS (SELECT doc_id, para_idx, para, "
    "row_number() OVER (PARTITION BY para ORDER BY doc_id, para_idx) AS rn FROM p) "
    "SELECT doc_id, "
    "coalesce(string_agg(para, chr(10) ORDER BY para_idx) FILTER (WHERE rn = 1), '') AS text, "
    "CAST(count(*) AS BIGINT) AS n_paras, "
    "CAST(count(*) FILTER (WHERE rn > 1) AS BIGINT) AS n_dropped "
    "FROM r GROUP BY doc_id"
))
def _q_paragraph_dedup(sf_dir: str):
    from pdftext_ray.ops import dedup

    # the gate table has no line structure: segment into deterministic
    # 10-token windows first (mirrored in the oracle SQL), then run the
    # corpus-wide keep-first paragraph dedup
    chunked = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda b: dedup.chunk_text_batch(b, 10), batch_format="pyarrow"
    )
    return dedup.paragraph_dedup(chunked)


@_query("line_dedup", oracle=(
    # chunking CTE mirrors chunk_text_batch; the planted header/footer
    # mirrors _q_line_dedup's plant; removal predicate = line appears in
    # >= 3 DISTINCT docs (RefinedWeb boilerplate rule, all copies go)
    "WITH chunked AS (SELECT doc_id, array_to_string("
    "list_transform(range(1, CAST(ceil(len(toks) / 10.0) AS BIGINT) + 1), "
    "i -> array_to_string(list_slice(toks, (i-1)*10 + 1, i*10), ' ')), chr(10)) AS text "
    "FROM (SELECT doc_id, regexp_extract_all(text, '\\S+') toks FROM documents)), "
    "planted AS (SELECT doc_id, 'SHARED HEADER LINE' || chr(10) || text || chr(10) || "
    "'SHARED FOOTER LINE' AS text FROM chunked), "
    "l AS (SELECT doc_id, unnest(range(1, len(parts)+1)) - 1 AS line_idx, unnest(parts) AS line "
    "FROM (SELECT doc_id, string_split(text, chr(10)) parts FROM planted)), "
    "f AS (SELECT line, count(DISTINCT doc_id) AS ndocs FROM l GROUP BY line) "
    "SELECT l.doc_id, "
    "coalesce(string_agg(l.line, chr(10) ORDER BY l.line_idx) FILTER (WHERE f.ndocs < 3), '') AS text, "
    "CAST(count(*) AS BIGINT) AS n_lines, "
    "CAST(count(*) FILTER (WHERE f.ndocs >= 3) AS BIGINT) AS n_removed "
    "FROM l JOIN f USING(line) GROUP BY l.doc_id"
))
def _q_line_dedup(sf_dir: str):
    from pdftext_ray.ops import dedup

    # segment into the same deterministic 10-token pseudo-lines as
    # paragraph_dedup, then plant one shared header + footer line around
    # every doc (mirrored in the oracle SQL) so the boilerplate removal
    # provably fires on every document
    def plant(b):
        import pyarrow as pa
        import pyarrow.compute as pc

        chunked = dedup.chunk_text_batch(b, 10)
        txt = pc.binary_join_element_wise(
            "SHARED HEADER LINE\n", chunked.column("text"), "\nSHARED FOOTER LINE", ""
        )
        return pa.Table.from_arrays([chunked.column("doc_id"), txt], names=["doc_id", "text"])

    planted = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        plant, batch_format="pyarrow"
    )
    return dedup.line_frequency_dedup(planted, min_docs=3)


# ---------------------------------------------------------------------------
# clustering / similarity search
# ---------------------------------------------------------------------------

# distributed Lloyd k-means vs an independent scalar golden under the shared
# determinism contract (lowest-id init, 6-decimal centroid rounding per update)
_op("kmeans_clusters", "ops.cluster.kmeans_assign", [_EMB], oracle=_golden("kmeans", "vec_id, cluster, dist"))
# ≤20 rows per kmeans cluster by the deterministic bottom-k hash draw; the
# oracle replays the selection over the kmeans golden
_op("cluster_balanced", "ops.cluster.cluster_balanced_sample", [_EMB], per_cluster=20,
    oracle=lambda: (
        # replay the deterministic bottom-20-per-cluster draw over the
        # kmeans golden (same hash arithmetic as the sampling oracles)
        "SELECT vec_id, cluster FROM ("
        "SELECT vec_id, cluster, row_number() OVER (PARTITION BY cluster "
        "ORDER BY (((CAST(vec_id + 17 AS HUGEINT) * 11400714819323198485) "
        "% 18446744073709551616) // 4294967296), vec_id) AS rn "
        f"FROM read_parquet('{_golden_path('kmeans')}')) WHERE rn <= 20"
    ))


@_query("similarity_topk_many", oracle=(
    "WITH q AS (SELECT vec_id AS query_id, CAST(embedding AS DOUBLE[]) qv FROM embeddings WHERE vec_id < 4), "
    "s AS (SELECT q.query_id, e.vec_id, round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv), 6) AS score "
    "FROM embeddings e, q), "
    "r AS (SELECT *, row_number() OVER (PARTITION BY query_id ORDER BY score DESC, vec_id ASC) rn FROM s) "
    "SELECT query_id, vec_id, score FROM r WHERE rn <= 10"
))
def _q_similarity_topk_many(sf_dir: str):
    import numpy as np
    import pyarrow.parquet as pq

    from pdftext_ray.ops import similarity

    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    qmask = [i for i, v in enumerate(t.column("vec_id").to_pylist()) if v < 4]
    qmat = np.asarray([t.column("embedding")[i].as_py() for i in qmask], dtype=np.float64)
    qids = [t.column("vec_id")[i].as_py() for i in qmask]
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    return similarity.brute_force_topk_many(emb, qmat, query_ids=qids, k=10)


def _query_vec(sf_dir: str) -> np.ndarray:
    t = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    )
    idx = t.column("vec_id").to_pylist().index(0)
    return np.asarray(t.column("embedding")[idx].as_py(), dtype=np.float64)


_op("similarity_topk", "ops.similarity.brute_force_topk", [_EMB, _query_vec], k=10,
    oracle=(
        "WITH q AS (SELECT embedding AS qv FROM embeddings WHERE vec_id = 0) "
        "SELECT e.vec_id, round(list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), CAST(q.qv AS DOUBLE[])), 6) AS score "
        "FROM embeddings e, q ORDER BY score DESC, e.vec_id ASC LIMIT 10"
    ))
# rows-only: the default approximate config has no SQL equivalent; its
# recall is pinned by similarity_ivf_recall
_op("similarity_ivf", "ops.similarity.ivf_topk", [_EMB, _query_vec], k=10)
# n_probe == n_centroids probes every list → the EXACT top-k, so the
# brute-force oracle holds
_op("similarity_ivf_exact", "ops.similarity.ivf_topk", [_EMB, _query_vec], k=10, n_centroids=8,
    n_probe=8, oracle=lambda: _sql("similarity_topk"))
# PQ (16 subspaces × 16 centroids) / SQ8 (8 bits per dim) vs independent
# scalar goldens under the shared determinism contracts
_op("similarity_pq", "ops.similarity.pq_topk", [_EMB, _query_vec], k=10,
    oracle=_golden("pq", "vec_id, adc_dist"))
_op("similarity_sq8", "ops.similarity.sq8_topk", [_EMB, _query_vec], k=10,
    oracle=_golden("sq8", "vec_id, sq8_score"))


def _recall(approx: str, **kwargs):
    """Query: recall@10 of the ANN op ``approx`` vs the exact brute-force
    top-k on the same input — seeded AND layout-independent, so the oracle
    pins the constant."""
    def run(sf_dir: str):
        import pandas as pd

        from pdftext_ray.ops import round_half_away, similarity

        _require_gate_corpus(sf_dir)
        emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
        q = _query_vec(sf_dir)
        exact = {r["vec_id"] for r in similarity.brute_force_topk(emb, q, k=10).take_all()}
        found = {r["vec_id"] for r in getattr(similarity, approx)(emb, q, k=10, **kwargs).take_all()}
        hits = len(exact & found)
        return pd.DataFrame(
            {"k": [10], "n_hits": [hits], "recall": [float(round_half_away(hits / 10, 4))]}
        )

    return run


_query("similarity_pq_recall", (
    # pinned numeric contract for the PQ path (same rationale as
    # similarity_ivf_recall): seeded + layout-independent, so
    # recall@10 vs brute force is a constant on the gate corpus.
    # 0.5 on RANDOM 64-dim embeddings (no cluster structure — the
    # adversarial case for PQ); regression = quantizer changed
    "SELECT CAST(10 AS BIGINT) AS k, CAST(5 AS BIGINT) AS n_hits, 0.5 AS recall"
))(_recall("pq_topk"))
_query("similarity_sq8_recall", (
    # pinned numeric contract for the SQ8 path: seeded +
    # layout-independent, so recall@10 vs brute force is a constant
    # on the gate corpus. 0.9 on RANDOM 64-dim embeddings — far
    # above PQ's 0.5 at 4× the code size (1 byte/dim vs 16 bytes
    # total); regression = quantizer changed
    "SELECT CAST(10 AS BIGINT) AS k, CAST(9 AS BIGINT) AS n_hits, 0.9 AS recall"
))(_recall("sq8_topk"))
# the APPROXIMATE IVF path (VERDICT r1 item 9). n_probe=8 of 16 lists: half
# the scan cost of exhaustive probing at recall 0.8 on this corpus
# (isotropic random embeddings — IVF's worst case; clustered real
# embeddings do far better at lower n_probe). Layout-independent: the IVF
# training sample is a hash of (id, seed) and is sorted before k-means
# init, so the pinned value cannot drift with Ray read parallelism or block
# layout (round-2 review finding)
_query("similarity_ivf_recall", (
    # pinned numeric contract for the approximate IVF path: the
    # computation is seeded AND layout-independent (hash-gated,
    # id-sorted training sample), so recall@10 vs brute force is a
    # constant on the gate corpus (measured 8/10 at n_probe=8 of 16
    # lists across 2/5/8-cpu layouts; regression = IVF changed)
    "SELECT CAST(10 AS BIGINT) AS k, CAST(8 AS BIGINT) AS n_hits, 0.8 AS recall"
))(_recall("ivf_topk", n_probe=8))


# ---------------------------------------------------------------------------
# relational / windows
# ---------------------------------------------------------------------------

_op("pricing_rollup", "ops.relational.lineitem_pricing_rollup",
    [_table("lineitem", "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice")],
    oracle=(
        "SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag, "
        "coalesce(l_linestatus, 'ALL') AS l_linestatus, "
        "round(sum(l_quantity), 2) AS sum_qty, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_price, "
        "count(*) AS n_rows FROM lineitem "
        "GROUP BY ROLLUP(l_returnflag, l_linestatus)"
    ))
_op("pricing_summary", "ops.relational.lineitem_pricing_summary",
    [_table("lineitem", "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_discount")],
    oracle=(
        # money columns in fixed point (invariant 13): cents / e4 sums
        # are order-independent; l_quantity is integer so its float sum
        # is exact on both engines
        "SELECT l_returnflag, l_linestatus, round(sum(l_quantity), 2) AS sum_qty, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_base_price, "
        "((sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
        "(100 - CAST(round(l_discount * 100) AS BIGINT))) + 50) // 100) / 100.0 AS sum_disc_price, "
        "count(*) AS n_rows FROM lineitem GROUP BY l_returnflag, l_linestatus"
    ))
_op("pricing_cube", "ops.relational.lineitem_pricing_cube",
    [_table("lineitem", "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice")],
    oracle=(
        "SELECT coalesce(l_returnflag, 'ALL') AS l_returnflag, "
        "coalesce(l_linestatus, 'ALL') AS l_linestatus, "
        "round(sum(l_quantity), 2) AS sum_qty, "
        "CAST(sum(CAST(round(l_extendedprice * 100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_price, "
        "count(*) AS n_rows FROM lineitem "
        "GROUP BY CUBE(l_returnflag, l_linestatus)"
    ))
_op("events_hourly", "ops.relational.events_hourly_window",
    [_table("events", "event_id", "ts", "event_type", "value")], oracle=(
        # cents sum (invariant 13): order-independent across engines
        "SELECT date_trunc('hour', ts) AS window_start, event_type, "
        "count(*) AS n_events, "
        "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value "
        "FROM events GROUP BY date_trunc('hour', ts), event_type"
    ))


@_query("streaming_window", oracle=lambda: _sql("events_hourly"))
def _q_streaming_window(sf_dir: str):
    """Actor-held tumbling event-time windows (true streaming shape: shard
    actors accumulate open windows in integer cents while the stream
    flows); flushed totals are arrival-order independent and must equal
    the batch hourly aggregate — the oracle IS events_hourly's SQL."""
    import ray.data

    from pdftext_ray.ops import streaming

    return ray.data.from_arrow(
        streaming.streaming_window_counts(
            _read(sf_dir, "events", ["event_type", "ts", "value"]), width_sec=3600
        )
    )


_op("events_props_summary", "ops.relational.events_props_summary",
    [_table("events", "event_type", "props")], oracle=(
        "SELECT event_type, count(*) AS n, "
        # CAST the sum itself: DuckDB sum(BIGINT) returns HUGEINT, which
        # pandas renders as float64 — the engine emits int64 and the
        # driver's value hash is dtype-sensitive (VERDICT r2 item 1).
        "CAST(sum(CAST(json_extract_string(props, 'k') AS BIGINT)) AS BIGINT) AS sum_k, "
        "round(sum(CAST(json_extract_string(props, 'k') AS BIGINT)) / CAST(count(*) AS DOUBLE), 6) AS avg_k "
        "FROM events GROUP BY event_type"
    ))
_op("events_sessions", "ops.relational.sessionize_events",
    [_table("events", "event_id", "ts", "user_id", "value")], gap_minutes=30,
    oracle=(
        "WITH o AS (SELECT user_id, ts, value, "
        "CASE WHEN ts - lag(ts) OVER (PARTITION BY user_id ORDER BY ts) > INTERVAL 30 MINUTE "
        "THEN 1 ELSE 0 END AS new_s FROM events), "
        "s AS (SELECT user_id, ts, value, sum(new_s) OVER (PARTITION BY user_id ORDER BY ts "
        "ROWS UNBOUNDED PRECEDING) AS session FROM o) "
        "SELECT user_id, min(ts) AS session_start, count(*) AS n_events, "
        "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value, "
        "CAST(date_diff('second', min(ts), max(ts)) AS BIGINT) AS duration_sec "
        "FROM s GROUP BY user_id, session"
    ))
_op("events_topk_per_type", "ops.relational.grouped_topk",
    [_table("events", "event_id", "event_type", "value")], "event_type", "value", k=3,
    oracle=(
        "SELECT event_id, event_type, value, CAST(rank AS BIGINT) AS rank FROM ("
        "SELECT event_id, event_type, value, "
        "row_number() OVER (PARTITION BY event_type ORDER BY value DESC, event_id ASC) AS rank "
        "FROM events) WHERE rank <= 3"
    ))
_op("events_sliding", "ops.relational.events_sliding_window",
    [_table("events", "event_id", "ts", "event_type", "value")], oracle=(
        "SELECT to_timestamp((floor(epoch(ts) / 900) * 900 - k.k * 900))::TIMESTAMP AS window_start, "
        "event_type, count(*) AS n_events, "
        "CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) / 100.0 AS sum_value "
        "FROM events CROSS JOIN (SELECT unnest([0, 1, 2, 3]) AS k) k "
        "GROUP BY 1, event_type"
    ))
# integer-cents running sums keep the window functions layout-independent
_op("events_window_funcs", "ops.relational.events_window_functions",
    [_table("events", "event_id", "user_id", "ts", "value")], oracle=(
        "SELECT event_id, user_id, ts, value, "
        "CAST(row_number() OVER (PARTITION BY user_id ORDER BY ts, event_id) AS BIGINT) AS row_num, "
        "lag(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS prev_value, "
        "lead(value) OVER (PARTITION BY user_id ORDER BY ts, event_id) AS next_value, "
        "round(sum(value) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS UNBOUNDED PRECEDING), 2) AS running_sum, "
        "round(avg(value) OVER (PARTITION BY user_id ORDER BY ts, event_id "
        "ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6) AS moving_avg3 "
        "FROM events"
    ))
_op("distinct_event_types", "ops.relational.distinct_values", [_table("events", "event_type")],
    "event_type", oracle="SELECT DISTINCT event_type FROM events")
_op("filter_project", "ops.relational.filter_project_documents",
    [_table("documents", "doc_id", "lang", "n_chars")], min_chars=200,
    oracle="SELECT doc_id, lang, n_chars FROM documents WHERE n_chars > 200")


@_query("top_users", oracle=(
    # int64-cents sum (invariant 13): order-independent across engines
    "SELECT user_id, CAST(sum(CAST(round(value * 100) AS BIGINT)) AS BIGINT) / 100.0 "
    "AS total_value FROM events "
    "GROUP BY user_id ORDER BY total_value DESC, user_id ASC LIMIT 10"
))
def _q_top_users(sf_dir: str):
    """Top-k: partial per-batch sums → few-partition agg → sort desc → limit."""
    import pandas as pd

    ds = _read(sf_dir, "events", ["user_id", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # int64 cents (CLAUDE.md invariant 13): events.value is exact
        # 2-decimal, so cents sums are order-independent across engines.
        from pdftext_ray.ops import money_cents

        df = df.assign(_cents=money_cents(df["value"].to_numpy()))
        return df.groupby("user_id", as_index=False).agg(total_cents=("_cents", "sum"))

    # user_id is unbounded at web scale — few-partition vectorized aggregate
    # (invariant 9), not a per-distinct-key Ray aggregate
    from pdftext_ray.ops.relational import hash_grouped_agg

    agg = hash_grouped_agg(
        ds.map_batches(partial, batch_format="pandas"),
        "user_id",
        {"total_cents": ("total_cents", "sum")},
    )

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df["total_value"] = df["total_cents"].astype("int64") / 100.0
        return df[["user_id", "total_value"]]

    return agg.map_batches(shape, batch_format="pandas").sort(
        ["total_value", "user_id"], descending=[True, False]
    ).limit(10)


# per-user event-type path ordered by (ts, id), as SQL string_agg ORDER BY
_op("user_journeys", "ops.relational.user_journey_paths",
    [_table("events", "event_id", "user_id", "ts", "event_type")], oracle=(
        "SELECT user_id, count(*) AS n_steps, "
        "string_agg(event_type, '>' ORDER BY ts, event_id) AS path "
        "FROM events GROUP BY user_id"
    ))
# static 24-column hour-of-day matrix per event type
_op("pivot_hourly", "ops.relational.pivot_hourly_counts", [_table("events", "event_type", "ts")],
    oracle=(
        "SELECT event_type, "
        + ", ".join(
            f"count(*) FILTER (WHERE hour(ts) = {h}) AS h{h:02d}" for h in range(24)
        )
        + ", count(*) AS total FROM events GROUP BY event_type"
    ))
# DAU retention matrix: first-event-date cohorts × day offsets ≤ 7
_op("retention_cohorts", "ops.relational.retention_cohorts", [_table("events", "user_id", "ts")],
    max_offset_days=7, oracle=(
        "WITH f AS (SELECT user_id, min(CAST(ts AS DATE)) AS c FROM events GROUP BY user_id), "
        "a AS (SELECT DISTINCT e.user_id, f.c, "
        "date_diff('day', f.c, CAST(e.ts AS DATE)) AS off "
        "FROM events e JOIN f USING (user_id)) "
        "SELECT strftime(c, '%Y-%m-%d') AS cohort_day, CAST(off AS BIGINT) AS day_offset, "
        "count(*) AS n_users FROM a WHERE off <= 7 GROUP BY c, off"
    ))
# click → purchase within 24h of the user's FIRST click; exact µs timestamps
_op("funnel_conversion", "ops.relational.funnel_conversion",
    [_table("events", "user_id", "ts", "event_type")], oracle=(
        "WITH fc AS (SELECT user_id, min(ts) AS t0 FROM events "
        "WHERE event_type = 'click' GROUP BY user_id), "
        "conv AS (SELECT DISTINCT fc.user_id FROM fc JOIN events e "
        "ON e.user_id = fc.user_id AND e.event_type = 'purchase' "
        "AND e.ts >= fc.t0 AND e.ts <= fc.t0 + INTERVAL 24 HOUR) "
        "SELECT (SELECT count(*) FROM fc) AS n_entered, "
        "(SELECT count(*) FROM conv) AS n_converted, "
        "round((SELECT count(*) FROM conv) / greatest((SELECT count(*) FROM fc), 1), 6) "
        "AS conversion_rate"
    ))
# global rank + ntile(10) WITHOUT a global sort: exact value-histogram base
# ranks + one hash shuffle for tie-breaks
_op("sort_rank", "ops.relational.sort_rank", [_table("documents", "doc_id", "n_chars")],
    "n_chars", "doc_id", descending=True, n_buckets=10, oracle=(
        "SELECT doc_id, n_chars, "
        "CAST(row_number() OVER (ORDER BY n_chars DESC, doc_id ASC) AS BIGINT) AS rank, "
        "CAST(ntile(10) OVER (ORDER BY n_chars DESC, doc_id ASC) AS BIGINT) AS bucket "
        "FROM documents"
    ))


@_query("upsert_latest", oracle=(
    "WITH v1 AS (SELECT doc_id, 1 AS version, text FROM documents), "
    "v2 AS (SELECT doc_id, 2 AS version, upper(text) AS text FROM documents WHERE doc_id % 3 = 0), "
    "u AS (SELECT * FROM v1 UNION ALL SELECT * FROM v2), "
    "r AS (SELECT *, row_number() OVER (PARTITION BY doc_id ORDER BY version DESC) AS rn FROM u) "
    "SELECT doc_id, CAST(version AS BIGINT) AS version, md5(text) AS text_hash "
    "FROM r WHERE rn = 1"
))
def _q_upsert_latest(sf_dir: str):
    """Corpus-refresh upsert: v1 = every doc, v2 = an updated third of the
    corpus (uppercased text) — keep-latest-version per doc via one
    co-locating shuffle. Output hashes the surviving text (md5 — identical
    in hashlib and DuckDB on this ASCII corpus)."""
    import hashlib

    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops import relational

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def v1(t: pa.Table) -> pa.Table:
        return t.append_column("version", pa.array([1] * len(t), pa.int64()))

    def v2(t: pa.Table) -> pa.Table:
        import numpy as np

        keep = pa.array(
            t.column("doc_id").to_numpy(zero_copy_only=False) % 3 == 0, pa.bool_()
        )
        t = t.filter(keep)
        return pa.table({
            "doc_id": t.column("doc_id"),
            "text": pc.utf8_upper(t.column("text")),
            "version": pa.array([2] * len(t), pa.int64()),
        })

    u = docs.map_batches(v1, batch_format="pyarrow").union(
        docs.map_batches(v2, batch_format="pyarrow")
    )
    kept = relational.upsert_latest(u, "doc_id", "version")

    def shape(t: pa.Table) -> pa.Table:
        hashes = [hashlib.md5(s.encode()).hexdigest() for s in t.column("text").to_pylist()]
        return pa.table({
            "doc_id": t.column("doc_id"),
            "version": pc.cast(t.column("version"), pa.int64()),
            "text_hash": pa.array(hashes, pa.string()),
        })

    return kept.map_batches(shape, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# joins
# ---------------------------------------------------------------------------

@_query("join_orders_customer", oracle=(
    # int64-cents sum (invariant 13): order-independent across engines
    "SELECT c_mktsegment, count(*) AS n_orders, "
    "CAST(sum(CAST(round(o_totalprice * 100) AS BIGINT)) AS BIGINT) / 100.0 AS total_price "
    "FROM orders JOIN customer ON o_custkey = c_custkey GROUP BY c_mktsegment"
))
def _q_join_orders_customer(sf_dir: str):
    """Broadcast join: orders (large) ⋈ customer (small side, ray.put once)
    → per-market-segment totals with partial pre-aggregation."""
    import pandas as pd
    import pyarrow as pa

    from pdftext_ray.ops import joins
    from ray.data.aggregate import Sum

    small = pq.read_table(os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"])
    joined = joins.broadcast_join(
        _read(sf_dir, "orders", ["o_custkey", "o_totalprice"]), small, "o_custkey", "c_custkey"
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # fixed-point cents (CLAUDE.md invariant 13): o_totalprice is exact
        # 2-decimal, so int64 cents sums are order-independent across
        # engines; a float sum can flip the 2-decimal rounding on a .xx5
        # boundary because accumulation order differs vs DuckDB.
        from pdftext_ray.ops import money_cents

        df = df.assign(_cents=money_cents(df["o_totalprice"].to_numpy()))
        return df.groupby("c_mktsegment", as_index=False).agg(
            n_orders=("_cents", "size"), total_cents=("_cents", "sum")
        )

    agg = joined.map_batches(partial, batch_format="pandas").groupby("c_mktsegment").aggregate(
        Sum("n_orders", alias_name="n_orders"), Sum("total_cents", alias_name="total_cents")
    )

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        from pdftext_ray.ops import assert_fixed_point_headroom

        assert_fixed_point_headroom(df["n_orders"], 2**27, "join_orders_customer")
        df["n_orders"] = df["n_orders"].astype("int64")
        df["total_price"] = df["total_cents"].astype("int64") / 100.0
        return df[["c_mktsegment", "n_orders", "total_price"]]

    return agg.map_batches(shape, batch_format="pandas")


@_query("join_lineitem_orders", oracle=(
    # fixed-point e4 revenue + integer half-up (the top_orders_q3 idiom)
    "SELECT o_orderpriority, count(*) AS n_items, "
    "((sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
    "(100 - CAST(round(l_discount * 100) AS BIGINT))) + 50) // 100) / 100.0 AS revenue "
    "FROM lineitem JOIN orders ON l_orderkey = o_orderkey GROUP BY o_orderpriority"
))
def _q_join_lineitem_orders(sf_dir: str):
    """Partitioned hash join (both sides large, one co-partitioned shuffle)
    → revenue per order priority."""
    import pandas as pd

    from pdftext_ray.ops import joins
    from ray.data.aggregate import Sum

    joined = joins.partitioned_hash_join(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount"]),
        _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"]),
        "l_orderkey",
        "o_orderkey",
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return pd.DataFrame({
                "o_orderpriority": pd.Series([], dtype=object),
                "n_items": pd.Series([], dtype="int64"),
                "rev_e4": pd.Series([], dtype="int64"),
            })
        # fixed-point revenue (CLAUDE.md invariant 13, the top_orders_q3
        # pattern): price_cents * (100 - discount_cents) is an exact int64
        # 4-decimal value; float products drift by accumulation order.
        from pdftext_ray.ops import money_cents

        price_c = money_cents(df["l_extendedprice"].to_numpy())
        disc_c = money_cents(df["l_discount"].to_numpy())
        df = df.assign(rev_e4=price_c * (100 - disc_c))
        return df.groupby("o_orderpriority", as_index=False).agg(
            n_items=("rev_e4", "size"), rev_e4=("rev_e4", "sum")
        )

    agg = joined.map_batches(partial, batch_format="pandas").groupby("o_orderpriority").aggregate(
        Sum("n_items", alias_name="n_items"), Sum("rev_e4", alias_name="rev_e4")
    )

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        from pdftext_ray.ops import assert_fixed_point_headroom

        assert_fixed_point_headroom(df["n_items"], 2**31, "join_lineitem_orders")
        df["n_items"] = df["n_items"].astype("int64")
        # integer half-up e4→cents (revenue > 0 so half-up == half away
        # from zero), mirrored by the oracle's (e4 + 50) // 100
        df["revenue"] = ((df["rev_e4"].astype("int64") + 50) // 100) / 100.0
        return df[["o_orderpriority", "n_items", "revenue"]]

    return agg.map_batches(shape, batch_format="pandas")


_op("events_asof", "ops.joins.asof_join_events",
    [_table("events", "event_id", "ts", "user_id", "event_type", "value")],
    oracle=(
        "SELECT p.event_id, p.user_id, p.ts, p.value, "
        "c.event_id AS matched_event_id, c.ts AS matched_ts, c.value AS matched_value "
        "FROM (SELECT * FROM events WHERE event_type = 'purchase') p "
        "ASOF JOIN (SELECT * FROM events WHERE event_type = 'click') c "
        "ON p.user_id = c.user_id AND p.ts >= c.ts"
    ))
_op("events_range_join", "ops.joins.range_join_events",
    [_table("events", "event_id", "ts", "user_id", "event_type")],
    oracle=(
        "SELECT p.event_id, p.user_id, p.ts, "
        "c.event_id AS matched_event_id, c.ts AS matched_ts "
        "FROM (SELECT * FROM events WHERE event_type = 'purchase') p "
        "JOIN (SELECT * FROM events WHERE event_type = 'click') c "
        "ON p.user_id = c.user_id "
        "AND c.ts >= p.ts - INTERVAL 6 HOUR AND c.ts < p.ts"
    ))


@functools.lru_cache(maxsize=4)
def _heavy_buyer_ids(sf_dir: str):
    """Users with more than 20 purchase events (a proper subset, so both the
    semi and anti joins return non-empty results). Computed as a DISTRIBUTED
    co-located grouped count — only the small qualifying key set (the semi
    join's broadcast side) ever reaches the driver."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops.relational import hash_grouped_agg

    def purchases(t: pa.Table) -> pa.Table:
        keep = t.filter(pc.equal(t.column("event_type"), "purchase"))
        return keep.select(["user_id"])

    counts = hash_grouped_agg(
        _read(sf_dir, "events", ["user_id", "event_type"]).map_batches(
            purchases, batch_format="pyarrow"
        ),
        "user_id",
        {"n": ("user_id", "size")},
    )
    heavy = counts.map_batches(
        lambda t: t.filter(pc.greater(t.column("n"), 20)).select(["user_id"]),
        batch_format="pyarrow",
    )
    return tuple(sorted(r["user_id"] for r in heavy.take_all()))


_EVENTS4 = _table("events", "event_id", "user_id", "event_type", "value")
# events of heavy purchasers (broadcast key set) / of everyone else
_op("events_semi_join", "ops.joins.semi_join", [_EVENTS4, _heavy_buyer_ids], "user_id",
    oracle=(
        "SELECT event_id, user_id, event_type, value FROM events WHERE user_id IN "
        "(SELECT user_id FROM events WHERE event_type = 'purchase' GROUP BY user_id HAVING count(*) > 20)"
    ))
_op("events_anti_join", "ops.joins.semi_join", [_EVENTS4, _heavy_buyer_ids], "user_id",
    anti=True, oracle=(
        "SELECT event_id, user_id, event_type, value FROM events WHERE user_id NOT IN "
        "(SELECT user_id FROM events WHERE event_type = 'purchase' GROUP BY user_id HAVING count(*) > 20)"
    ))


@_query("events_semi_anti", oracle=lambda: (
    "SELECT 'semi' AS side, event_id, user_id, event_type, value "
    "FROM (" + _sql("events_semi_join") + ") sj_sub "
    "UNION ALL SELECT 'anti' AS side, event_id, user_id, event_type, value "
    "FROM (" + _sql("events_anti_join") + ") aj_sub"
))
def _q_events_semi_anti(sf_dir: str):
    """Semi join ∪ anti join against the broadcast heavy-buyer key set,
    tagged by side (the two sides partition the events table)."""
    import pyarrow as pa

    def tag(side: str, ds):
        def fn(t: pa.Table) -> pa.Table:
            return t.add_column(0, "side", _const_str(side, len(t)))

        return ds.map_batches(fn, batch_format="pyarrow")

    return tag("semi", _run("events_semi_join", sf_dir)).union(
        tag("anti", _run("events_anti_join", sf_dir))
    )


# salted inner join (events × customer on user_id = c_custkey): hot keys
# salted by hash(event_id) into 4 sub-buckets, right side replicated per
# salt — provably equal to the plain join, which IS the oracle.
# hot_threshold=50 makes every user hot at sf0.01, so every key is salted
_op("salted_join", "ops.joins.salted_hash_join",
    [_table("events", "event_id", "user_id", "value"), _table("customer", "c_custkey", "c_mktsegment")],
    "user_id", "c_custkey", salt_col="event_id", left_cols=["event_id", "user_id", "value"],
    right_cols=["c_custkey", "c_mktsegment"], hot_threshold=50, num_salts=4,
    oracle=(
        # the salted plan's contract: identical rows to the PLAIN join
        "SELECT e.event_id, e.user_id, e.value, c.c_mktsegment "
        "FROM events e JOIN customer c ON e.user_id = c.c_custkey"
    ))


@_query("left_outer_join", oracle=(
    "SELECT e.event_id, e.user_id, e.value, c.c_mktsegment "
    "FROM events e LEFT JOIN (SELECT * FROM customer "
    "WHERE c_mktsegment = 'BUILDING') c ON e.user_id = c.c_custkey"
))
def _q_left_outer_join(sf_dir: str):
    """LEFT OUTER variant of the salted co-partitioned join: dimension
    filtered to one segment so most events null-extend — every left row
    appears exactly once (matched or null-extended) by construction."""
    import pyarrow.compute as pc

    from pdftext_ray.ops import joins

    dim = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t.column("c_mktsegment"), "BUILDING")),
        batch_format="pyarrow",
    )
    return joins.salted_hash_join(
        _read(sf_dir, "events", ["event_id", "user_id", "value"]),
        dim,
        "user_id", "c_custkey", salt_col="event_id",
        left_cols=["event_id", "user_id", "value"],
        right_cols=["c_custkey", "c_mktsegment"],
        hot_threshold=50, num_salts=4, how="left",
    )


@_query("bloom_semi_events", oracle=(
    # replicate the bloom's multiplicative double-hash in HUGEINT:
    # h = top-32-bits of (key * P) mod 2^64; pos_i = (h1 + i*(2*h2+1)) % 256.
    # Membership = all 4 positions set by some high-value purchaser —
    # the oracle reproduces the filter's false positives exactly.
    "WITH hashes AS (SELECT DISTINCT user_id, "
    "((CAST(user_id AS HUGEINT) * 11400714819323198485) % 18446744073709551616) // 4294967296 AS h1, "
    "((CAST(user_id AS HUGEINT) * 14029467366897019727) % 18446744073709551616) // 4294967296 AS h2 "
    "FROM events), "
    "i AS (SELECT unnest([0, 1, 2, 3]) AS i), "
    "rbits AS (SELECT DISTINCT (h.h1 + i.i * (2 * h.h2 + 1)) % 256 AS pos "
    "FROM hashes h JOIN (SELECT DISTINCT user_id FROM events "
    "WHERE event_type = 'purchase' AND value > 200.0) p USING (user_id) "
    "CROSS JOIN i), "
    "lpos AS (SELECT h.user_id, (h.h1 + i.i * (2 * h.h2 + 1)) % 256 AS pos "
    "FROM hashes h CROSS JOIN i), "
    "member AS (SELECT user_id FROM lpos LEFT JOIN rbits r ON lpos.pos = r.pos "
    "GROUP BY user_id HAVING count(r.pos) = 4) "
    "SELECT e.event_id, e.user_id, e.event_type, e.value "
    "FROM events e JOIN member USING (user_id)"
))
def _q_bloom_semi_events(sf_dir: str):
    """Distributed-Bloom semi join: bitmap built block-parallel over the
    high-value purchasers (OR-merge of partial bitmaps), broadcast once,
    all events probed vectorized. m=256 deliberately small so the filter's
    deterministic FALSE POSITIVES are part of the contract — the oracle
    replicates the multiplicative double-hash in HUGEINT SQL bit-for-bit."""
    import pyarrow.compute as pc

    from pdftext_ray.ops import joins

    events = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "value"])
    purchasers = events.map_batches(
        lambda t: t.filter(
            pc.and_(pc.equal(t.column("event_type"), "purchase"),
                    pc.greater(t.column("value"), 200.0))
        ).select(["user_id"]),
        batch_format="pyarrow",
    )
    bits = joins.distributed_bloom_bits(purchasers, "user_id", m_bits=256, num_hashes=4)
    return joins.bloom_semi_join(events, bits, "user_id", m_bits=256, num_hashes=4)


@_query("top_orders_q3", oracle=(
    # fixed-point (invariant 13): price_cents * (100 - disc_cents)
    # summed as integers (DuckDB promotes to HUGEINT), then integer
    # half-up to cents — identical arithmetic to the Ray side
    "SELECT l_orderkey, "
    "((sum(CAST(round(l_extendedprice * 100) AS BIGINT) * "
    "(100 - CAST(round(l_discount * 100) AS BIGINT))) + 50) // 100) / 100.0 AS revenue, "
    "strftime(o_orderdate, '%Y-%m-%d') AS o_orderdate, o_orderpriority "
    "FROM customer, orders, lineitem "
    "WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey "
    "AND l_orderkey = o_orderkey "
    "AND o_orderdate < DATE '1997-01-01' AND l_shipdate > DATE '1997-01-01' "
    "GROUP BY l_orderkey, o_orderdate, o_orderpriority "
    "ORDER BY revenue DESC, l_orderkey LIMIT 10"
))
def _q_top_orders_q3(sf_dir: str):
    """TPC-H-Q3-shaped composition over EXISTING primitives: broadcast
    semi-filter orders by the BUILDING customer keys (bounded dimension
    collect), date-filter both fact sides at the read, partial per-order
    revenue inside map_batches, one co-partitioned join, tiny global
    sort+limit. The multi-join pipeline shape a reporting workload runs."""
    from datetime import date

    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops import from_pandas_clean, joins

    cutoff = date(1997, 1, 1)  # ONE threshold, mirrored by the oracle literal
    cust = _read(sf_dir, "customer", ["c_custkey", "c_mktsegment"]).map_batches(
        lambda t: t.filter(pc.equal(t.column("c_mktsegment"), "BUILDING"))
        .select(["c_custkey"]),
        batch_format="pyarrow",
    )
    keys = [r["c_custkey"] for r in cust.take_all()]  # bounded: dimension side

    orders = _read(
        sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate", "o_orderpriority"]
    ).map_batches(
        lambda t: t.filter(pc.less(t.column("o_orderdate"), pa.scalar(cutoff))),
        batch_format="pyarrow",
    )
    orders = joins.semi_join(orders, keys, "o_custkey")

    line = _read(
        sf_dir, "lineitem", ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"]
    )

    def rev_partial(t: pa.Table) -> pa.Table:
        # fixed-point revenue (CLAUDE.md invariant 13): accumulating
        # l_extendedprice*(1-l_discount) in float drifts by accumulation
        # order vs DuckDB and can flip the final 2-decimal rounding on a
        # .xx5 boundary. price_cents * (100 - discount_cents) is an exact
        # int64 4-decimal value; sums are order-independent.
        t = t.filter(pc.greater(t.column("l_shipdate"), pa.scalar(cutoff)))
        price_c = pc.cast(
            pc.round(pc.multiply(t.column("l_extendedprice"), pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        disc_c = pc.cast(
            pc.round(pc.multiply(t.column("l_discount"), pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        rev_e4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        g = (
            pa.table({"l_orderkey": t.column("l_orderkey"), "rev_e4": rev_e4})
            .group_by("l_orderkey")
            .aggregate([("rev_e4", "sum")])
        )
        return g.rename_columns(["l_orderkey", "rev_e4"])

    # l_orderkey is unbounded at web scale — few-partition vectorized
    # aggregate (invariant 9), not a per-distinct-key Ray Sum
    from pdftext_ray.ops.relational import hash_grouped_agg

    rev = hash_grouped_agg(
        line.map_batches(rev_partial, batch_format="pyarrow", batch_size=65536),
        "l_orderkey",
        {"rev_e4": ("rev_e4", "sum")},
    )

    # the join-back uses the EMPTY-ROBUST co-partitioned salted plan, not
    # Acero Dataset.join — both sides here are row-filtered and can have
    # empty partitions or be empty overall (CLAUDE.md invariant 7)
    def date_to_str(t: pa.Table) -> pa.Table:
        return pa.table({
            "o_orderkey": t.column("o_orderkey"),
            "o_orderdate": pc.strftime(t.column("o_orderdate"), format="%Y-%m-%d"),
            "o_orderpriority": t.column("o_orderpriority"),
        })

    joined = joins.salted_hash_join(
        rev,
        orders.map_batches(date_to_str, batch_format="pyarrow"),
        "l_orderkey", "o_orderkey", salt_col="l_orderkey",
        left_cols=["l_orderkey", "rev_e4"],
        right_cols=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )

    def shape(df):
        # integer half-up (revenue > 0 so half-up == half away from zero):
        # exact 2-decimal rounding of the 4-decimal fixed-point sum, no
        # float boundary ambiguity; mirrored by the oracle's (e4+50)//100
        df["revenue"] = ((df["rev_e4"].astype("int64") + 50) // 100) / 100.0
        return from_pandas_clean(
            df[["l_orderkey", "revenue", "o_orderdate", "o_orderpriority"]]
        )

    return (
        joined.map_batches(shape, batch_format="pandas")
        .sort(["revenue", "l_orderkey"], descending=[True, False])
        .limit(10)
    )


# ---------------------------------------------------------------------------
# sampling / packing / shuffling. Oracles reproduce the uint64 Fibonacci-hash
# gate bit-for-bit (wraparound via % 2^64)
# ---------------------------------------------------------------------------

@_query("hash_sampling", oracle=lambda: (
    "SELECT 'sample10' AS method, doc_id, 'keep' AS label FROM (" + _sql("sample_10pct") + ") s10_sub "
    "UNION ALL SELECT 'split' AS method, doc_id, split AS label FROM (" + _sql("train_val_split") + ") sp_sub "
    "UNION ALL SELECT 'temperature' AS method, doc_id, lang AS label FROM (" + _sql("temperature_sample") + ") tm_sub "
    "UNION ALL SELECT 'stratified' AS method, doc_id, lang AS label FROM (" + _sql("stratified_sample") + ") st_sub"
))
def _q_hash_sampling(sf_dir: str):
    """The four deterministic hash-gate sampling ops in one tagged union
    (method, doc_id, label): 10% sample, train/val/test split, temperature
    rebalance, per-language stratified sample. Each part runs its own
    unchanged op; labels carry the op-specific output."""
    import pyarrow as pa
    import pyarrow.compute as pc

    def shape(method: str, label_col: str | None, label_const: str | None = None):
        def fn(t: pa.Table) -> pa.Table:
            label = (
                pc.cast(t.column(label_col), pa.string())
                if label_col
                else _const_str(label_const or "", len(t))
            )
            return pa.table({
                "method": _const_str(method, len(t)),
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "label": label,
            })

        return fn

    sample = _run("sample_10pct", sf_dir)
    split = _run("train_val_split", sf_dir)
    temp = _run("temperature_sample", sf_dir)
    strat = _run("stratified_sample", sf_dir)
    return (
        sample.map_batches(shape("sample10", None, "keep"), batch_format="pyarrow")
        .union(split.map_batches(shape("split", "split"), batch_format="pyarrow"))
        .union(temp.map_batches(shape("temperature", "lang"), batch_format="pyarrow"))
        .union(strat.map_batches(shape("stratified", "lang"), batch_format="pyarrow"))
    )


_op("sample_10pct", "ops.sampling.hash_sample", [_table("documents", "doc_id", "lang", "n_chars")],
    fraction=0.1, oracle=(
        "SELECT doc_id, lang, n_chars FROM documents WHERE "
        "((((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296) % 10000) < 1000"
    ))
_op("train_val_split", "ops.sampling.hash_split", [_table("documents", "doc_id")],
    {"train": 0.8, "val": 0.1, "test": 0.1}, oracle=(
        "SELECT doc_id, CASE WHEN b < 8000 THEN 'train' WHEN b < 9000 THEN 'val' "
        "ELSE 'test' END AS split FROM (SELECT doc_id, "
        "((((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296) % 10000) AS b FROM documents)"
    ))
# temperature (count^alpha) source rebalancing; the oracle reproduces the
# per-group rates AND the hash gate
_op("temperature_sample", "ops.sampling.temperature_sample", [_table("documents", "doc_id", "lang")],
    group_col="lang", alpha=0.5, oracle=(
        "WITH c AS (SELECT lang, count(*) AS cnt FROM documents GROUP BY lang), "
        "tot AS (SELECT sum(cnt) AS n, sum(pow(cnt, 0.5)) AS z FROM c), "
        "th AS (SELECT lang, CAST(floor(least(1.0, n * pow(cnt, 0.5) / z / cnt) * 10000) AS BIGINT) AS gate "
        "FROM c, tot) "
        "SELECT d.doc_id, d.lang FROM documents d JOIN th USING (lang) WHERE "
        "((((CAST(d.doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296) % 10000) < gate"
    ))
# per-language hash sample (downsample dominant en, keep all zh)
_op("stratified_sample", "ops.sampling.stratified_sample",
    [_table("documents", "doc_id", "lang", "n_chars")], "lang", {"en": 0.3, "de": 0.8, "zh": 1.0},
    default_fraction=0.1, oracle=(
        "SELECT doc_id, lang, n_chars FROM documents WHERE "
        "((((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296) % 10000) < CASE lang WHEN 'en' THEN 3000 WHEN 'de' THEN 8000 "
        "WHEN 'zh' THEN 10000 ELSE 1000 END"
    ))
# length-weighted sample without replacement (Efraimidis–Spirakis races on a
# quantized deterministic priority)
_op("weighted_sample", "ops.sampling.weighted_sample", [_table("documents", "doc_id", "n_chars")],
    k=50, weight_col="n_chars", oracle=(
        # identical double-precision expression to ops/sampling.
        # weighted_sample: u = (hash52 + 1) / 2^52, priority =
        # floor(ln(u) / w * 2^32) — verified bit-identical vs numpy on
        # all three sf tables (the quantization grid is the contract)
        "SELECT doc_id, n_chars, CAST(floor(ln(((((CAST(doc_id + 17 AS HUGEINT) * "
        "11400714819323198485) % 18446744073709551616) // 4096) + 1) / 4503599627370496.0) "
        "/ n_chars * 4294967296.0) AS BIGINT) AS priority "
        "FROM documents ORDER BY priority DESC, doc_id LIMIT 50"
    ))
# deterministic global shuffle order: distributed rank over the 32-bit key hash
_op("shuffle_rank", "ops.sampling.shuffle_rank", [_table("documents", "doc_id")],
    oracle=(
        "SELECT doc_id, row_number() OVER (ORDER BY "
        "(((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296), doc_id) - 1 AS shuffle_rank FROM documents"
    ))
# GPT-style packing: global prefix-sum placement in a 1024-token stream
_op("pack_sequences", "ops.pack.pack_sequences", [_DOCS], budget=1024,
    oracle=(
        "WITH t AS (SELECT doc_id, CAST(len(regexp_extract_all(text, '\\S+')) AS BIGINT) AS n "
        "FROM documents), o AS (SELECT doc_id, n, CAST(coalesce(sum(n) OVER "
        "(ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS s "
        "FROM t) SELECT doc_id, n AS n_tokens, s AS start_offset, s // 1024 AS seq_id, "
        "s % 1024 AS seq_pos, CASE WHEN n > 0 THEN (s + n - 1) // 1024 - s // 1024 + 1 "
        "ELSE 0 END AS n_seqs FROM o"
    ))
# at most 10 docs per source by seeded hash rank (the per-domain cap rule)
_op("domain_cap", "ops.sampling.group_cap", [_table("documents", "doc_id", "source")], cap=10,
    group_col="source", key_col="doc_id", oracle=(
        # hash32 mirrors ops.sampling._key_hash32's integer path exactly
        "SELECT doc_id, source, group_rank FROM ("
        "SELECT doc_id, source, CAST(row_number() OVER (PARTITION BY source ORDER BY "
        "(((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296), doc_id) AS BIGINT) AS group_rank FROM documents) t "
        "WHERE group_rank <= 10"
    ))


# ---------------------------------------------------------------------------
# composed pipelines
# ---------------------------------------------------------------------------

@_query("clean_extracted", oracle=lambda: (
    # composed extraction→dedup oracle over the independent
    # single-doc plain-text golden
    "SELECT md5(text) AS text_hash, min(doc_id) AS keep_doc_id, "
    f"count(*) AS dup_count FROM read_parquet('{_golden_path('plain')}') GROUP BY md5(text)"
))
def _q_clean_extracted(sf_dir: str):
    """Composed END-TO-END flow: interleaved-corpus extraction → per-doc
    plain text → exact dedup — the extraction engine feeding the
    training-data ops in one lazy Ray graph (no materialization between
    stages). Oracle: the same dedup SQL over the independent single-doc
    plain-text golden parquet."""
    from pdftext_ray.ops import dedup
    from pdftext_ray.pipelines import extract as P

    plain = P.extract(_corpus_docs(sf_dir), "plain")
    return dedup.exact_dedup(plain, id_col="doc_id", text_col="text")


# quality/lang gates → exact dedup
_op("clean_corpus", "pipelines.clean.clean_corpus", [_DOCS], oracle=(
    "WITH g AS (SELECT doc_id, md5(text) AS text_hash, "
    "len(regexp_extract_all(text, '\\S+')) AS n_tokens, "
    "CAST(len(regexp_extract_all(text, '[a-zA-Z]')) AS DOUBLE) / greatest(length(text), 1) AS alpha_raw, "
    f"CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1) AS stop_raw "
    "FROM documents), "
    "kept AS (SELECT * FROM g WHERE n_tokens >= 20 AND alpha_raw >= 0.5 AND stop_raw >= 0.02) "
    "SELECT min(doc_id) AS doc_id, min(n_tokens) AS n_tokens, "
    "round(min(alpha_raw), 6) AS alpha_ratio, round(min(stop_raw), 6) AS stop_ratio "
    "FROM kept GROUP BY text_hash"
))
# quality gates → exact dedup → temperature rebalancing → packing, checked
# END TO END against one CTE-chain oracle
_op("training_mixture", "pipelines.mixture.training_mixture",
    [_table("documents", "doc_id", "text", "lang")], budget=512, alpha=0.5,
    oracle=(
        # the full composed flow in one CTE chain, each stage the same
        # expression its standalone oracle uses (gates = clean_corpus,
        # rebalance = temperature_sample, placement = pack_sequences)
        "WITH g AS (SELECT doc_id, lang, md5(text) AS text_hash, "
        "len(regexp_extract_all(text, '\\S+')) AS n_tokens, "
        "CAST(len(regexp_extract_all(text, '[a-zA-Z]')) AS DOUBLE) / greatest(length(text), 1) AS alpha_raw, "
        f"CAST(len(list_filter(regexp_extract_all(lower(text), '\\S+'), x -> x IN {_STOPLIST_SQL})) AS DOUBLE) / greatest(len(regexp_extract_all(text, '\\S+')), 1) AS stop_raw "
        "FROM documents), "
        "kept AS (SELECT * FROM g WHERE n_tokens >= 20 AND alpha_raw >= 0.5 AND stop_raw >= 0.02), "
        # ARG-min keep-first: the surviving row keeps its OWN lang
        "dd AS (SELECT doc_id, lang, CAST(n_tokens AS BIGINT) AS n_tokens FROM "
        "(SELECT *, row_number() OVER (PARTITION BY text_hash ORDER BY doc_id) AS rn "
        "FROM kept) WHERE rn = 1), "
        "c AS (SELECT lang, count(*) AS cnt FROM dd GROUP BY lang), "
        "tot AS (SELECT sum(cnt) AS n, sum(pow(cnt, 0.5)) AS z FROM c), "
        "th AS (SELECT lang, CAST(floor(least(1.0, n * pow(cnt, 0.5) / z / cnt) * 10000) AS BIGINT) AS gate FROM c, tot), "
        "samp AS (SELECT dd.* FROM dd JOIN th USING (lang) WHERE "
        "((((CAST(doc_id + 17 AS HUGEINT) * 11400714819323198485) % 18446744073709551616) "
        "// 4294967296) % 10000) < gate), "
        "o AS (SELECT doc_id, lang, n_tokens, CAST(coalesce(sum(n_tokens) OVER "
        "(ORDER BY doc_id ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS BIGINT) AS s "
        "FROM samp) "
        "SELECT doc_id, lang, n_tokens, s AS start_offset, s // 512 AS seq_id, "
        "s % 512 AS seq_pos, CASE WHEN n_tokens > 0 THEN "
        "(s + n_tokens - 1) // 512 - s // 512 + 1 ELSE 0 END AS n_seqs FROM o"
    ))


# ---------------------------------------------------------------------------
# multimodal
# ---------------------------------------------------------------------------

@_query("media_pipeline", oracle=_golden("imedia", "*"))
def _q_media_pipeline(sf_dir: str):
    """Composed INTERLEAVED multimodal flow, end to end in one lazy graph:
    corpus extraction → media spans → blob hydration (the synthetic
    object-store fetch) → actor-pool featurize (decode/resize/frame-sample)
    → exploded features. Oracle: scalar golden re-deriving the featurizer
    math over the expected_flat span golden's media refs."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from pdftext_ray.ops import media
    from pdftext_ray.pipelines import extract as P

    spans = P.extract_spans_exploded(_corpus_docs(sf_dir))

    def media_refs(t: pa.Table) -> pa.Table:
        # flatten the nested span lists, keep media spans' refs only
        flat = pc.list_flatten(t.column("spans").combine_chunks())
        kinds = pc.struct_field(flat, "kind")
        refs = pc.struct_field(flat, "media_ref")
        keep = pc.equal(kinds, "media")
        return pa.table({"media_ref": pc.cast(refs.filter(keep), pa.string())})

    feats = media.featurize_media(
        media.hydrate_media_refs(
            spans.map_batches(media_refs, batch_format="pyarrow")
        )
    )

    def explode(t: pa.Table) -> pa.Table:
        fv = t.column("feature").combine_chunks()
        parents = pc.list_parent_indices(fv)
        refs = t.column("media_ref").combine_chunks()
        doc = pc.struct_field(
            pc.extract_regex(refs, r"media://(?P<d>[^/]+)/"), "d"
        )
        idx = [i for ln in pc.list_value_length(fv).to_pylist() for i in range(ln)]
        return pa.table({
            "doc_id": pc.cast(doc, pa.string()).take(parents),
            "media_ref": refs.take(parents),
            "media_type": t.column("media_type").take(parents),
            "frames_sampled": pc.cast(t.column("frames_sampled"), pa.int32()).take(parents),
            "feat_idx": pa.array(idx, pa.int32()),
            "feat_value": pc.cast(pc.list_flatten(fv), pa.float64()),
        })

    return feats.map_batches(explode, batch_format="pyarrow")


@_query("media_features", oracle=_golden("media", "*"))
def _q_media_features(sf_dir: str):
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data

    from pdftext_ray.ops import media

    _require_gate_corpus(sf_dir)
    n = max(30, _corpus_size(sf_dir) // 10)
    ds = ray.data.from_arrow(media.synth_media_table(n))
    feats = media.featurize_media(ds)

    # explode the feature vector to (…, feat_idx, feat_value) rows so the
    # FULL histogram features are value-compared against the scalar golden
    def explode(t: pa.Table) -> pa.Table:
        fv = t.column("feature").combine_chunks()
        parents = pc.list_parent_indices(fv)
        lengths = pc.list_value_length(fv).to_pylist()
        idx = [i for ln in lengths for i in range(ln)]
        return pa.table({
            "media_ref": t.column("media_ref").take(parents),
            "media_type": t.column("media_type").take(parents),
            "out_width": t.column("out_width").take(parents),
            "out_height": t.column("out_height").take(parents),
            "frames_sampled": t.column("frames_sampled").take(parents),
            "feat_idx": pa.array(idx, pa.int32()),
            "feat_value": pc.cast(pc.list_flatten(fv), pa.float64()),
        })

    return feats.map_batches(explode, batch_format="pyarrow")


@_query("media_resize", oracle=_golden("resize", "media_ref, out_width, out_height, pixel_sum, payload_sha"))
def _q_media_resize(sf_dir: str):
    """Real-pixel actor-pool resize: deterministic PPM images decoded,
    nearest-neighbor index-map resized, re-encoded — sha256 of the output
    bytes compared against a per-pixel scalar golden."""
    import pyarrow as pa
    import ray.data

    from pdftext_ray.ops import media

    _require_gate_corpus(sf_dir)
    ds = ray.data.from_arrow(media.synth_ppm_table(40))

    def drop_payload(t: pa.Table) -> pa.Table:
        return t.drop_columns(["payload"])

    return media.resize_media(ds, out_w=16, out_h=12).map_batches(
        drop_payload, batch_format="pyarrow"
    )


@_query("audio_features", oracle=_golden("audio", "media_ref, frame_idx, rms"))
def _q_audio_features(sf_dir: str):
    """REAL audio path: deterministic PCM16 WAVs decoded by the stdlib
    RIFF codec, framed RMS energy per 256-sample window (integer energy
    sums + correctly-rounded sqrt — exact vs the per-sample scalar
    golden)."""
    import ray.data

    from pdftext_ray.ops import media

    # no gate-corpus guard: the golden is a pure function of (seed, n)
    return media.audio_features(ray.data.from_arrow(media.synth_wav_table(30)))


@_query("video_frame_stats", oracle=_golden("video", "media_ref, frame_idx, mean_r, mean_g, mean_b"))
def _q_video_frame_stats(sf_dir: str):
    """REAL video path: PPMV container (concatenated PPM frames) decoded
    by seek-then-decode frame sampling; exact per-channel pixel means vs
    the per-pixel scalar golden."""
    import ray.data

    from pdftext_ray.ops import media

    # no gate-corpus guard: the golden is a pure function of (seed, n)
    return media.video_frame_stats(ray.data.from_arrow(media.synth_ppmv_table(25)))


# ---------------------------------------------------------------------------
# the driver contract: views of the registry
# ---------------------------------------------------------------------------

# The driver's correctness window: it scores exactly these 50 queries, in
# this order (CORRECTNESS_r02 evaluated the first 50 of 76). Every operator
# family from SURVEY.md §2 and the training-data op layer has a row here;
# same-family variants and single-op queries are extras, merged here into
# tagged unions and pytest-verified against their own oracles
# (tests/test_gate_extras.py).
DRIVER_QUERIES = (
    # extraction (the north-rule surface)
    "extract_spans", "extract_plain_text", "extract_paginated_text", "extract_tables",
    "extract_dictionary",
    # per-doc text analysis
    "text_stats", "gopher_quality", "pii_scrub", "normalize_text", "winnow_fingerprints",
    # corpus-wide text analysis
    "top_ngrams", "ranked_retrieval", "decontaminate", "domain_counts",
    # sketches / statistics
    "sketch_counts", "quantiles",
    # graph / decomposition (round-3 continuation families — driver row for
    # each per VERDICT r2 item 1; zscore/sliding variants are extras, their
    # families stay driver-covered)
    "graph_pagerank", "pca_top_component",
    # deduplication
    "dedup_exact_prefix", "incremental_family", "dedup_minhash", "dedup_simhash",
    "ngram_jaccard", "embedding_dup_pairs", "dedup_clusters", "dedup_keepbest",
    "semantic_dedup", "streaming_dedup",
    # clustering / similarity search
    "kmeans_clusters", "cluster_balanced", "similarity_topk_many", "similarity_ivf_recall",
    "similarity_pq",
    # relational / windows
    "pricing_rollup", "events_hourly", "events_props_summary", "events_sessions",
    "events_topk_per_type",
    # joins
    "join_orders_customer", "join_lineitem_orders", "events_asof", "events_range_join",
    "events_semi_anti",
    # sampling / packing / shuffling
    "hash_sampling", "weighted_sample", "shuffle_rank", "pack_sequences",
    # composed pipelines
    "clean_extracted", "training_mixture",
    # multimodal
    "media_pipeline",
)


def queries() -> dict[str, Callable[[str], Any]]:
    """The driver's 50 queries, in DRIVER_QUERIES order."""
    return {name: _REGISTRY[name].fn for name in DRIVER_QUERIES}


def extra_queries() -> dict[str, Callable[[str], Any]]:
    """Every other registered query (gated by tests/test_gate_extras.py)."""
    return {name: q.fn for name, q in _REGISTRY.items() if name not in DRIVER_QUERIES}


def _oracles(names) -> dict[str, str]:
    """Oracle SQL of each of ``names`` that has one. The goldens are
    materialized here (idempotently; not at import time — ADVICE r1), so
    the oracle side works whether the driver runs queries or oracles first."""
    try:
        _ensure_corpus(GATE_SF_DIR)
        _ensure_op_goldens()
    except Exception as e:  # noqa: BLE001 - surface, don't fail the listing
        import sys

        print(f"warning: could not materialize goldens: {e}", file=sys.stderr)
    return {name: _sql(name) for name in names if _REGISTRY[name].oracle is not None}


def oracle_sql() -> dict[str, str]:
    """Oracles for the 50 driver queries (every one has one)."""
    return _oracles(DRIVER_QUERIES)


def extra_oracle_sql() -> dict[str, str]:
    """Oracles for the extra queries (all but rows-only similarity_ivf)."""
    return _oracles(extra_queries())
