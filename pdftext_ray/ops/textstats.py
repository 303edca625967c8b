"""Text analysis operators: token counting, quality scoring, language ID,
document fingerprinting. All vectorized pyarrow/numpy per batch — no Python
loop over rows in the hot path (hashing uses C-backed hashlib per string).

Each operator is a pure ``map_batches`` stage (stateless tasks); every output
column is named to match the DuckDB oracle SQL in __ray_entry__.py exactly.
"""

from __future__ import annotations

import hashlib
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from pdftext_ray.ops import round_half_away

TOKEN_RE = r"\S+"

# deliberately tiny, fixed stopword list (must mirror the oracle SQL)
STOPWORDS: List[str] = ["the", "a", "of", "and", "to", "in", "is"]
_STOP_ARR = pa.array(STOPWORDS)

LANG_STOP_THRESHOLD = 0.02  # stopword ratio at/above which we call it English


def _stop_counts(texts: pa.ChunkedArray) -> np.ndarray:
    """Per-row count of stopword tokens (vectorized via list offsets)."""
    out = np.zeros(len(texts), dtype=np.int64)
    pos = 0
    chunks = texts.chunks if isinstance(texts, pa.ChunkedArray) else [texts]
    for chunk in chunks:
        toks = pc.utf8_split_whitespace(pc.utf8_lower(chunk))
        flat = toks.flatten()
        hits = pc.is_in(flat, value_set=_STOP_ARR).to_numpy(zero_copy_only=False).astype(np.int64)
        offsets = toks.offsets.to_numpy(zero_copy_only=False)
        base = offsets - offsets[0]
        csum = np.concatenate([[0], np.cumsum(hits)])
        out[pos:pos + len(chunk)] = csum[base[1:]] - csum[base[:-1]]
        pos += len(chunk)
    return out


def token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_tokens (\\S+ runs), n_chars_text (UTF-8 char length)."""
    text = batch.column("text")
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pc.cast(pc.count_substring_regex(text, TOKEN_RE), pa.int64()),
            pc.cast(pc.utf8_length(text), pa.int64()),
        ],
        names=["doc_id", "n_tokens", "n_chars_text"],
    )


def quality_score_batch(batch: pa.Table) -> pa.Table:
    """Quality signals: alpha ratio, space ratio, stopword ratio, mean token
    length. Ratios are rounded to 6 decimals (FP-stable vs the SQL oracle)."""
    text = batch.column("text")
    n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.float64)
    n_alpha = pc.count_substring_regex(text, "[a-zA-Z]").to_numpy(zero_copy_only=False).astype(np.float64)
    n_space = pc.count_substring_regex(text, " ").to_numpy(zero_copy_only=False).astype(np.float64)
    n_tokens = pc.count_substring_regex(text, TOKEN_RE).to_numpy(zero_copy_only=False).astype(np.float64)
    stop = _stop_counts(text).astype(np.float64)
    denom_c = np.maximum(n_chars, 1.0)
    denom_t = np.maximum(n_tokens, 1.0)
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pa.array(round_half_away(n_alpha / denom_c, 6)),
            pa.array(round_half_away(n_space / denom_c, 6)),
            pa.array(round_half_away(stop / denom_t, 6)),
            pa.array(round_half_away((n_chars - n_space) / denom_t, 6)),
        ],
        names=["doc_id", "alpha_ratio", "space_ratio", "stopword_ratio", "mean_token_len"],
    )


def lang_id_batch(batch: pa.Table) -> pa.Table:
    """N-gram-free heuristic language ID: stopword-ratio gate (deterministic,
    mirrors the oracle SQL CASE expression)."""
    text = batch.column("text")
    n_tokens = np.maximum(
        pc.count_substring_regex(text, TOKEN_RE).to_numpy(zero_copy_only=False).astype(np.float64), 1.0
    )
    ratio = _stop_counts(text).astype(np.float64) / n_tokens
    pred = np.where(ratio >= LANG_STOP_THRESHOLD, "en", "unk")
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(pred), pa.array(round_half_away(ratio, 6))],
        names=["doc_id", "pred_lang", "stop_ratio"],
    )


def fingerprint_batch(batch: pa.Table) -> pa.Table:
    """Stable document fingerprint: md5 of the lowercased text (hex)."""
    texts = pc.utf8_lower(batch.column("text")).to_pylist()
    digests = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts]
    return pa.Table.from_arrays(
        [batch.column("doc_id"), pa.array(digests, pa.string())],
        names=["doc_id", "fingerprint"],
    )


# BPE-ish pre-tokenizer: letter runs, digit runs, single punctuation — a
# pattern both Python re and DuckDB's RE2 evaluate identically
BPE_RE = r"[A-Za-z]+|[0-9]+|[^A-Za-z0-9\s]"


def bpe_token_count_batch(batch: pa.Table) -> pa.Table:
    """doc_id, n_bpe_tokens — count of BPE-ish pre-tokens (brief: 'token
    counting (whitespace + a BPE-ish regex)'; whitespace counting is
    token_count_batch)."""
    text = batch.column("text")
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pc.cast(pc.count_substring_regex(text, BPE_RE), pa.int64()),
        ],
        names=["doc_id", "n_bpe_tokens"],
    )


def winnow_fingerprints_batch(
    batch: pa.Table, k: int = 5, window: int = 4, id_col: str = "doc_id", text_col: str = "text"
) -> pa.Table:
    """Rolling-hash document fingerprints via winnowing (Schleimer et al.,
    SIGMOD'03): Rabin-Karp rolling hash over character k-grams, then the
    minimum hash of each sliding window (rightmost min) — the standard
    near-copy fingerprint set. Output: doc_id, fingerprints list<int64>,
    n_fingerprints.
    """
    import numpy as np

    B, M = 257, (1 << 31) - 1
    ids = batch.column(id_col).to_pylist()
    texts = batch.column(text_col).to_pylist()
    o_fp, o_n = [], []
    for t in texts:
        data = t.encode("utf-8", "ignore")
        n = len(data)
        if n < k:
            o_fp.append([])
            o_n.append(0)
            continue
        arr = np.frombuffer(data, dtype=np.uint8).astype(np.int64)
        # rolling hash of every k-gram: h[i] = sum(b[i+j] * B^(k-1-j)) mod M
        powers = np.array([pow(B, k - 1 - j, M) for j in range(k)], dtype=np.int64)
        # vectorized via strided windows (n small per doc)
        idx = np.arange(n - k + 1)[:, None] + np.arange(k)[None, :]
        hashes = (arr[idx] * powers[None, :]).sum(axis=1) % M
        if len(hashes) <= window:
            sel = {int(hashes.min())}
        else:
            widx = np.arange(len(hashes) - window + 1)[:, None] + np.arange(window)[None, :]
            wmin = hashes[widx].min(axis=1)
            sel = set(int(v) for v in np.unique(wmin))
        fps = sorted(sel)
        o_fp.append(fps)
        o_n.append(len(fps))
    return pa.Table.from_arrays(
        [
            batch.column(id_col),
            pa.array(o_fp, pa.list_(pa.int64())),
            pa.array(o_n, pa.int32()),
        ],
        names=[id_col, "fingerprints", "n_fingerprints"],
    )


# Gopher-style repetition gates (Rae et al. 2021, "Scaling Language Models:
# Methods, Analysis & Insights from Training Gopher", §A1.1 quality filters).
# Tokenization is deliberately ASCII-whitespace (explicit class, identical
# under Python re and DuckDB RE2) and case-sensitive so the SQL oracle is
# bit-exact; thresholds follow the paper's duplicate-line/word-repetition
# bands.
GOPHER_DUP_LINE_MAX = 0.3
GOPHER_WORD_REP_MAX = 0.2
GOPHER_SYMBOL_RATIO_MAX = 0.1
_WS_SPLIT_RE = r"[ \t\n\r\f]+"


def gopher_quality_batch(batch: pa.Table) -> pa.Table:
    """Per-doc repetition/symbol stats + keep verdict.

    dup_line_frac     fraction of newline-split lines that repeat
    max_word_rep_frac occurrences of the most frequent word / total words
    symbol_word_ratio ('#' chars + '...' runs) / total words
    gopher_keep       1 when all three are inside the thresholds
    """
    import re
    from collections import Counter

    text_col = batch.column("text")
    texts = text_col.to_pylist()
    n_hash = pc.count_substring(text_col, "#").to_numpy(zero_copy_only=False).astype(np.float64)
    n_ell = pc.count_substring(text_col, "...").to_numpy(zero_copy_only=False).astype(np.float64)
    split = re.compile(_WS_SPLIT_RE)
    dup_line, word_rep, n_words_arr = [], [], []
    for t in texts:
        lines = t.split("\n")
        dup_line.append((len(lines) - len(set(lines))) / max(len(lines), 1))
        words = [w for w in split.split(t) if w]
        if words:
            word_rep.append(Counter(words).most_common(1)[0][1] / len(words))
        else:
            word_rep.append(0.0)
        n_words_arr.append(len(words))
    dup_line = round_half_away(np.array(dup_line), 6)
    word_rep = round_half_away(np.array(word_rep), 6)
    sym = round_half_away(
        (n_hash + n_ell) / np.maximum(np.array(n_words_arr, dtype=np.float64), 1.0), 6
    )
    keep = (
        (dup_line <= GOPHER_DUP_LINE_MAX)
        & (word_rep <= GOPHER_WORD_REP_MAX)
        & (sym <= GOPHER_SYMBOL_RATIO_MAX)
    ).astype(np.int64)
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pa.array(dup_line),
            pa.array(word_rep),
            pa.array(sym),
            pa.array(keep, pa.int64()),
        ],
        names=["doc_id", "dup_line_frac", "max_word_rep_frac", "symbol_word_ratio", "gopher_keep"],
    )


def gopher_quality(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(gopher_quality_batch, batch_format="pyarrow")


def ngram_repetition_batch(
    batch: pa.Table, top_n: int = 2, dup_n: int = 5
) -> pa.Table:
    """Per-doc n-gram repetition signals (the Gopher repetition-filter
    family over word n-grams; Rae et al. 2021 §A1.1 shapes, with the exact
    convention documented here because published implementations differ):

    top_ngram        the most frequent ``top_n``-gram (space-joined tokens;
                     count ties broken by lexicographically smallest gram;
                     '' when the doc has < top_n tokens)
    top_ngram_frac   count(top gram) · len(top gram) / max(n_chars, 1) —
                     chars covered by ALL its occurrences (overlaps counted
                     per occurrence, not coverage-deduped)
    dup_ngram_frac   Σ over ``dup_n``-grams seen ≥ 2 times of
                     (count − 1) · len(gram) / max(n_chars, 1) — chars in
                     occurrences BEYOND the first (a doc with no repeated
                     5-grams scores exactly 0)

    Tokens are ``\\S+`` runs — the repo-wide convention, matching the
    oracle's RE2 ``\\S+`` on ASCII corpora (Python's Unicode ``\\s`` ⊃
    RE2's ASCII class on exotic whitespace; the shared-token contract is
    ASCII text, like every textstats oracle). Stateless and per-doc —
    embarrassingly parallel at any scale. Fractions are
    integer·integer/integer double arithmetic, so SQL reproduces them
    bit-for-bit; rounded half-away to 6.
    """
    import re
    from collections import Counter

    find = re.compile(r"\S+").findall
    texts = batch.column("text").to_pylist()
    top_grams: list = []
    top_fracs: list = []
    dup_fracs: list = []
    for t in texts:
        toks = find(t) if t else []
        nc = max(len(t), 1)
        if len(toks) >= top_n:
            c2 = Counter(
                " ".join(toks[i : i + top_n]) for i in range(len(toks) - top_n + 1)
            )
            # tie-break: max count, then lexicographically SMALLEST gram
            best_cnt = max(c2.values())
            best_gram = min(g for g, c in c2.items() if c == best_cnt)
            top_grams.append(best_gram)
            top_fracs.append(best_cnt * len(best_gram) / nc)
        else:
            top_grams.append("")
            top_fracs.append(0.0)
        if len(toks) >= dup_n:
            c5 = Counter(
                " ".join(toks[i : i + dup_n]) for i in range(len(toks) - dup_n + 1)
            )
            dup_fracs.append(
                sum((c - 1) * len(g) for g, c in c5.items() if c >= 2) / nc
            )
        else:
            dup_fracs.append(0.0)
    return pa.Table.from_arrays(
        [
            batch.column("doc_id"),
            pa.array(top_grams, pa.string()),
            pa.array(round_half_away(np.array(top_fracs, dtype=np.float64), 6)),
            pa.array(round_half_away(np.array(dup_fracs, dtype=np.float64), 6)),
        ],
        names=["doc_id", "top_ngram", "top_ngram_frac", "dup_ngram_frac"],
    )


def ngram_repetition(
    ds: ray.data.Dataset, top_n: int = 2, dup_n: int = 5
) -> ray.data.Dataset:
    import functools

    return ds.map_batches(
        functools.partial(ngram_repetition_batch, top_n=top_n, dup_n=dup_n),
        batch_format="pyarrow",
    )


# PII scrub patterns — RE2 syntax only (no lookaround), so the Arrow kernel
# and DuckDB's regexp_replace evaluate them identically
URL_RE = r"https?://[^\s]+"
EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"


def pii_scrub_batch(batch: pa.Table) -> pa.Table:
    """Replace URLs then emails with placeholder tokens, counting each.

    Entirely Arrow compute (RE2) — zero Python per row. URLs scrub first so
    an address embedded in a URL query string counts once, as a URL.
    Output: doc_id, text (scrubbed), n_urls, n_emails.
    """
    text = batch.column("text")
    n_urls = pc.cast(pc.count_substring_regex(text, URL_RE), pa.int64())
    no_urls = pc.replace_substring_regex(text, URL_RE, "<URL>")
    n_emails = pc.cast(pc.count_substring_regex(no_urls, EMAIL_RE), pa.int64())
    scrubbed = pc.replace_substring_regex(no_urls, EMAIL_RE, "<EMAIL>")
    return pa.Table.from_arrays(
        [batch.column("doc_id"), scrubbed, n_urls, n_emails],
        names=["doc_id", "text", "n_urls", "n_emails"],
    )


def pii_scrub(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(pii_scrub_batch, batch_format="pyarrow")


def tfidf_topk(
    ds: ray.data.Dataset,
    k: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_docs: int = None,
    n_parts: int = None,
) -> ray.data.Dataset:
    """Top-k terms per document by tf·idf (idf = ln(N/df)).

    Global document frequencies need every (term, doc) pair of one term in
    one place — ONE few-partition shuffle on hash(term) gives each partition
    its terms' ENTIRE posting lists, so df and the per-row score compute in
    one vectorized pass (no separate df table, no join back). A second
    doc-hash shuffle finalizes per-doc head-k. Output: (doc_id, term, tf,
    score), ≤k rows per doc, score rounded to 6 decimals.
    """
    import re
    from collections import Counter

    import pandas as pd

    from pdftext_ray.ops.exchange import by_key

    if n_docs is None:
        n_docs = ds.count()
    n_f = float(n_docs)

    def explode_tf(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        id_type = b.schema.field(id_col).type
        ids_out, terms, tfs = [], [], []
        for i, t in zip(b.column(id_col).to_pylist(), b.column(text_col).to_pylist()):
            c = Counter(find(t))
            ids_out.extend([i] * len(c))
            terms.extend(c.keys())
            tfs.extend(c.values())
        return pa.Table.from_arrays(
            [pa.array(ids_out, id_type), pa.array(terms, pa.string()), pa.array(tfs, pa.int64())],
            names=[id_col, "term", "tf"],
        )

    def score_part(g: pd.DataFrame) -> pa.Table:
        # every (doc, term) row of a term lives here → size per term IS the
        # global document frequency ((doc, term) is unique after Counter)
        df_per_row = g.groupby("term")["term"].transform("size").to_numpy()
        tf_arr = g["tf"].to_numpy()
        score = round_half_away(tf_arr * np.log(n_f / df_per_row), 6)
        id_dtype = g[id_col].dtype
        id_type = pa.string() if id_dtype == object else pa.from_numpy_dtype(id_dtype)
        return pa.Table.from_arrays(
            [
                pa.array(g[id_col].to_numpy(), id_type),
                pa.array(g["term"].to_numpy(), pa.string()),
                pa.array(tf_arr, pa.int64()),
                pa.array(score, pa.float64()),
            ],
            names=[id_col, "term", "tf", "score"],
        )

    scored = by_key((ds.map_batches(explode_tf, batch_format="pyarrow"), "term"), score_part, n_parts)

    def head_per_doc(g: pd.DataFrame) -> pa.Table:
        ids = g[id_col].to_numpy()
        order = np.lexsort((g["term"].to_numpy(), -g["score"].to_numpy(), ids))
        ids_s = ids[order]
        change = np.empty(len(ids_s), dtype=bool)
        change[0] = True
        change[1:] = ids_s[1:] != ids_s[:-1]
        # rank within each doc-run; keep ranks < k
        run_id = np.cumsum(change) - 1
        run_start = np.zeros(len(ids_s), dtype=np.int64)
        starts = np.nonzero(change)[0]
        run_start = starts[run_id]
        rank = np.arange(len(ids_s)) - run_start
        sel = order[rank < k]
        id_dtype = g[id_col].dtype
        id_type = pa.string() if id_dtype == object else pa.from_numpy_dtype(id_dtype)
        return pa.Table.from_arrays(
            [
                pa.array(ids[sel], id_type),
                pa.array(g["term"].to_numpy()[sel], pa.string()),
                pa.array(g["tf"].to_numpy()[sel], pa.int64()),
                pa.array(g["score"].to_numpy()[sel], pa.float64()),
            ],
            names=[id_col, "term", "tf", "score"],
        )

    return by_key((scored, id_col), head_per_doc, n_parts)


def decontaminate(
    ds: ray.data.Dataset,
    bench_col: str = "source",
    bench_value: str = "src0",
    n: int = 5,
    id_col: str = "doc_id",
    text_col: str = "text",
    n_parts: int = None,
) -> ray.data.Dataset:
    """Train/test decontamination: for every non-benchmark document, count
    the distinct token n-grams it shares with the benchmark side (rows where
    ``bench_col == bench_value``). The standard contamination check run
    before training (n=13 in the GPT-3/PaLM recipes; n is a parameter).

    Plan: one pass explodes each doc to its DISTINCT lowercased \\S+-token
    n-grams (per-doc set, so the shuffle carries ≤ one row per (doc, gram));
    ONE few-partition shuffle on hash(gram) co-locates every holder of a
    gram, so benchmark membership is a partition-local vectorized isin —
    no broadcast gram set, no driver state. A second doc-keyed
    ``hash_grouped_agg`` sums the per-partition partial counts. At corpus
    scale, ship a 128-bit gram hash instead of the string (collision odds
    ~n²/2¹²⁸); the gate uses the exact string so the DuckDB oracle compares
    distinct-gram counts exactly. Output: (doc_id, n_hits), contaminated
    docs only.
    """
    import re

    import pandas as pd

    from pdftext_ray.ops.exchange import by_key
    from pdftext_ray.ops.relational import hash_grouped_agg

    def explode_grams(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        id_type = b.schema.field(id_col).type
        ids_out, grams, bench = [], [], []
        for i, t, src in zip(
            b.column(id_col).to_pylist(),
            b.column(text_col).to_pylist(),
            b.column(bench_col).to_pylist(),
        ):
            toks = find(t.lower())
            gset = {" ".join(toks[j : j + n]) for j in range(len(toks) - n + 1)}
            ids_out.extend([i] * len(gset))
            grams.extend(gset)
            bench.extend([src == bench_value] * len(gset))
        return pa.Table.from_arrays(
            [
                pa.array(grams, pa.string()),
                pa.array(ids_out, id_type),
                pa.array(bench, pa.bool_()),
            ],
            names=["gram", id_col, "bench"],
        )

    def hits_part(g: pd.DataFrame) -> pa.Table:
        bench_grams = g.loc[g["bench"], "gram"].unique()
        hit = g[~g["bench"] & g["gram"].isin(bench_grams)]
        out = hit.groupby(id_col, as_index=False).agg(n_hits=("gram", "size"))
        id_dtype = g[id_col].dtype
        id_type = pa.string() if id_dtype == object else pa.from_numpy_dtype(id_dtype)
        return pa.Table.from_arrays(
            [
                pa.array(out[id_col].to_numpy(), id_type),
                pa.array(out["n_hits"].to_numpy(), pa.int64()),
            ],
            names=[id_col, "n_hits"],
        )

    partials = by_key((ds.map_batches(explode_grams, batch_format="pyarrow"), "gram"), hits_part, n_parts)
    return hash_grouped_agg(partials, id_col, {"n_hits": ("n_hits", "sum")})


def bm25_topk(
    ds: ray.data.Dataset,
    terms: List[str],
    k1: float = 1.2,
    b: float = 0.75,
    topk: int = 10,
    id_col: str = "doc_id",
    text_col: str = "text",
) -> ray.data.Dataset:
    """BM25 ranked retrieval for a fixed term set → top-k (doc_id, score).

    Two streaming passes, no shuffle: pass 1 reduces per-batch partials
    (doc count, total length, per-term document frequency) to a handful of
    scalars on the driver; pass 2 scores every document against the
    broadcast stats and emits only its local top-k, finalized by a top-k
    sort over ≤ k rows per block. Term addition is left-associative and
    stats are exact integer sums, so the score stream is bit-stable against
    the SQL oracle (idf = ln((N-df+0.5)/(df+0.5)+1), Robertson/Lucene
    form). At corpus scale the df pass piggybacks on any other full scan.
    """
    import ray

    terms = list(terms)

    def stats_partial(batch: pa.Table) -> pa.Table:
        import re

        find = re.compile(r"\S+").findall
        n, sum_dl = 0, 0
        dfs = [0] * len(terms)
        for t in batch.column(text_col).to_pylist():
            toks = find(t.lower())
            n += 1
            sum_dl += len(toks)
            tokset = set(toks)
            for j, term in enumerate(terms):
                if term in tokset:
                    dfs[j] += 1
        cols = {"n": pa.array([n], pa.int64()), "sum_dl": pa.array([sum_dl], pa.int64())}
        for j in range(len(terms)):
            cols[f"df{j}"] = pa.array([dfs[j]], pa.int64())
        return pa.table(cols)

    parts = ds.map_batches(stats_partial, batch_format="pyarrow").take_all()
    n_docs = sum(r["n"] for r in parts)
    avgdl = sum(r["sum_dl"] for r in parts) / n_docs
    dfs = [sum(r[f"df{j}"] for r in parts) for j in range(len(terms))]
    idfs = [float(np.log((n_docs - df + 0.5) / (df + 0.5) + 1.0)) for df in dfs]
    ref = ray.put((terms, idfs, avgdl))

    def score_local(batch: pa.Table) -> pa.Table:
        import re

        tset, idf, adl = ray.get(ref)
        find = re.compile(r"\S+").findall
        ids = batch.column(id_col).to_numpy(zero_copy_only=False)
        if len(ids) == 0:
            return pa.table({id_col: pa.array([], pa.int64()),
                             "score": pa.array([], pa.float64())})
        texts = batch.column(text_col).to_pylist()
        dls = np.empty(len(texts), dtype=np.float64)
        tfs = np.zeros((len(texts), len(tset)), dtype=np.float64)
        for i, t in enumerate(texts):
            toks = find(t.lower())
            dls[i] = len(toks)
            for j, term in enumerate(tset):
                tfs[i, j] = toks.count(term)
        denom_tail = k1 * (1.0 - b + b * dls / adl)
        score = np.zeros(len(texts), dtype=np.float64)
        for j in range(len(tset)):  # left-associative term sum (oracle parity)
            score = score + idf[j] * tfs[:, j] / (tfs[:, j] + denom_tail)
        score = round_half_away(score, 6)
        take = min(topk, len(ids))
        sel = np.lexsort((ids, -score))[:take]
        return pa.table({
            id_col: pa.array(ids[sel].astype(np.int64), pa.int64()),
            "score": pa.array(score[sel], pa.float64()),
        })

    local = ds.map_batches(score_local, batch_format="pyarrow")
    return local.sort(["score", id_col], descending=[True, False]).limit(topk)


def bpe_token_counts(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(bpe_token_count_batch, batch_format="pyarrow")


def winnow_fingerprints(ds: ray.data.Dataset, k: int = 5, window: int = 4) -> ray.data.Dataset:
    return ds.map_batches(
        lambda b: winnow_fingerprints_batch(b, k, window), batch_format="pyarrow"
    )


def token_counts(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(token_count_batch, batch_format="pyarrow")


def quality_scores(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(quality_score_batch, batch_format="pyarrow")


def lang_id(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(lang_id_batch, batch_format="pyarrow")


def fingerprints(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(fingerprint_batch, batch_format="pyarrow")


def combined_text_stats_batch(batch: pa.Table) -> pa.Table:
    """All five per-doc text statistics in ONE pass over the batch (token
    count, quality ratios, language ID, fingerprint, BPE-ish token count):
    same rows, column-concatenated — one read + one map instead of five."""
    parts = [
        token_count_batch(batch),
        quality_score_batch(batch),
        lang_id_batch(batch),
        fingerprint_batch(batch),
        bpe_token_count_batch(batch),
    ]
    cols: dict = {"doc_id": parts[0].column("doc_id")}
    for p in parts:
        for name in p.column_names:
            if name != "doc_id":
                cols[name] = p.column(name)
    return pa.table(cols)


def combined_text_stats(ds: ray.data.Dataset) -> ray.data.Dataset:
    return ds.map_batches(combined_text_stats_batch, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# URL / domain statistics
# ---------------------------------------------------------------------------

_DOMAIN_RE = None  # compiled lazily once per worker process


def url_domain_counts_batch(batch: pa.Table) -> pa.Table:
    """Per-batch PARTIAL domain stats: extract every URL's domain and emit
    one pre-aggregated (domain, n_urls, n_docs) row per distinct domain in
    the batch — the combiner that keeps the global shuffle tiny (distinct
    domains, not URL occurrences, cross the wire).

    Regex matching over variable-length text is inherently per-string;
    the pattern compiles once per worker process and everything after the
    match loop is a dict combine."""
    global _DOMAIN_RE
    if _DOMAIN_RE is None:
        import re

        _DOMAIN_RE = re.compile(r"https?://([^/\s]+)")
    n_urls: dict = {}
    n_docs: dict = {}
    for s in batch.column("text").to_pylist():
        if not s:
            continue
        doms = _DOMAIN_RE.findall(s)
        for d in doms:
            n_urls[d] = n_urls.get(d, 0) + 1
        for d in set(doms):
            n_docs[d] = n_docs.get(d, 0) + 1
    keys = sorted(n_urls)
    return pa.table({
        "domain": pa.array(keys, pa.string()),
        "n_urls": pa.array([n_urls[k] for k in keys], pa.int64()),
        "n_docs": pa.array([n_docs[k] for k in keys], pa.int64()),
    })


def url_domain_counts(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Global per-domain URL statistics over a corpus: how many URL
    occurrences and how many distinct docs mention each domain. Plan:
    batch-local combine (above) then ONE keyed merge of the partials
    (`hash_grouped_agg` — each domain lives in exactly one partition, so
    partition-local sums are final)."""
    from pdftext_ray.ops.relational import hash_grouped_agg

    partials = ds.map_batches(url_domain_counts_batch, batch_format="pyarrow")
    return hash_grouped_agg(
        partials, "domain", {"n_urls": ("n_urls", "sum"), "n_docs": ("n_docs", "sum")}
    )


def top_ngrams(
    ds: ray.data.Dataset,
    n: int = 2,
    k: int = 50,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Corpus-wide top-k most frequent token n-grams (OCCURRENCE counts,
    not per-doc sets) — the frequency table a vocab/BPE-induction or
    collocation pass starts from.

    Plan: batch-local Counter combine (distinct grams per batch, not
    occurrences, cross the wire) → ONE keyed merge of the partials
    (`hash_grouped_agg`, final per-partition counts) → per-block local
    top-k (each block forwards ≤ k rows) → tiny global sort + limit.
    Tie-break (count desc, gram asc) is deterministic on both sides of the
    oracle, so the k-boundary cut is stable."""
    import re

    from pdftext_ray.ops.relational import hash_grouped_agg

    def partial_counts(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        counts: dict = {}
        for t in b.column(text_col).to_pylist():
            toks = find(t.lower()) if t else []
            for j in range(len(toks) - n + 1):
                g = " ".join(toks[j:j + n])
                counts[g] = counts.get(g, 0) + 1
        keys = sorted(counts)
        return pa.table({
            "gram": pa.array(keys, pa.string()),
            "n": pa.array([counts[g] for g in keys], pa.int64()),
        })

    totals = hash_grouped_agg(
        ds.map_batches(partial_counts, batch_format="pyarrow"),
        "gram", {"n": ("n", "sum")},
    )

    def local_topk(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(
            t, sort_keys=[("n", "descending"), ("gram", "ascending")]
        )[:k]
        out = t.take(idx)
        return pa.table({
            "gram": pc.cast(out.column("gram"), pa.string()),
            "n": pc.cast(out.column("n"), pa.int64()),
        })

    return (
        totals.map_batches(local_topk, batch_format="pyarrow")
        .sort(["n", "gram"], descending=[True, False])
        .limit(k)
    )


def lm_perplexity(
    ds: ray.data.Dataset,
    text_col: str = "text",
    max_vocab: int = 1_000_000,
) -> ray.data.Dataset:
    """CCNet-style corpus LM quality signal: train an add-1-smoothed
    unigram word LM on the corpus, score every doc's bits-per-token
    cross-entropy under it (Wenzek et al. 2020 use a KenLM 5-gram; the
    unigram variant keeps the same pipeline shape — train-on-corpus,
    broadcast model, score-per-doc — with a model a SQL-free scalar golden
    can replicate exactly).

    Model: p(w) = (c_w + 1) / (T + V + 1), OOV p = 1 / (T + V + 1), over
    \\S+ lowercased tokens. Per-token costs are FIXED-POINT:
    L(w) = round(−log2(p(w))·10⁶) as int64, computed ONCE per vocab entry
    with scalar math.log2 (engine and golden share the exact same libm
    call — no numpy-SIMD ulp drift), so per-doc sums are exact integer
    arithmetic and layout-independent. bits_per_token = ΣL / (10⁶·n)
    rounded half-away to 6 (0.0 for empty docs).

    Plan: batch-local token Counters → one keyed partial merge
    (hash_grouped_agg, count-cardinality traffic) → bounded vocab collect
    (REFUSES above ``max_vocab`` — the same honest-cap contract as
    exact_percentiles) → broadcast cost table via ``ray.put`` → stateless
    vectorized scoring pass.
    """
    import math
    import re

    from pdftext_ray.ops.relational import hash_grouped_agg

    def partial_counts(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        counts: dict = {}
        n_docs = 0
        for t in b.column(text_col).to_pylist():
            n_docs += 1
            for w in find(t.lower()) if t else []:
                counts[w] = counts.get(w, 0) + 1
        keys = sorted(counts)
        return pa.table({
            "tok": pa.array(keys, pa.string()),
            "n": pa.array([counts[k] for k in keys], pa.int64()),
        })

    vocab_df = hash_grouped_agg(
        ds.map_batches(partial_counts, batch_format="pyarrow"),
        "tok", {"n": ("n", "sum")},
    ).to_pandas()
    if len(vocab_df) > max_vocab:
        raise ValueError(
            f"vocabulary has {len(vocab_df)} distinct tokens > max_vocab={max_vocab}; "
            "raise the cap or pre-filter the corpus (the broadcast cost table is "
            "a bounded collect by contract)"
        )
    total = int(vocab_df["n"].sum()) if len(vocab_df) else 0
    v = len(vocab_df)
    denom = total + v + 1
    costs = {
        w: int(round_half_away(-math.log2((int(c) + 1) / denom) * 1e6, 0))
        for w, c in zip(vocab_df.get("tok", []), vocab_df.get("n", []))
    }
    oov_cost = int(round_half_away(-math.log2(1 / denom) * 1e6, 0)) if denom > 1 else 0
    ref = ray.put((costs, oov_cost))

    def score(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        table, oov = ray.get(ref)
        get = table.get
        n_toks: list = []
        bits: list = []
        for t in b.column(text_col).to_pylist():
            toks = find(t.lower()) if t else []
            if not toks:
                n_toks.append(0)
                bits.append(0.0)
                continue
            s = sum(get(w, oov) for w in toks)
            n_toks.append(len(toks))
            bits.append(float(round_half_away(s / (1e6 * len(toks)), 6)))
        return pa.Table.from_arrays(
            [
                b.column("doc_id"),
                pa.array(n_toks, pa.int64()),
                pa.array(bits, pa.float64()),
            ],
            names=["doc_id", "n_tokens", "bits_per_token"],
        )

    return ds.map_batches(score, batch_format="pyarrow")


def bpe_train(
    ds: ray.data.Dataset,
    n_merges: int = 30,
    text_col: str = "text",
    max_vocab: int = 1_000_000,
) -> pa.Table:
    """Byte-pair-encoding vocabulary induction (Sennrich et al. 2016) —
    the tokenizer-training pass, in the published word-count formulation
    (pair statistics depend only on DISTINCT words × multiplicities, so
    the corpus-sized work is ONE distributed word count; the merge loop
    runs driver-side on the bounded vocab — the same honest-collect
    contract as lm_perplexity, with the same ``max_vocab`` refusal).

    Deterministic spec shared with the scalar golden: lowercased \\S+
    words split to character tuples; per round the merge is the pair with
    max total count, ties to the lexicographically smallest (left, right);
    within a word, occurrences merge left-to-right non-overlapping
    (scan i: match → emit joined, skip 2). Stops early when no pair
    repeats. Output: (rank, left, right, merged, count).
    """
    import re

    from pdftext_ray.ops.relational import hash_grouped_agg

    def partial_counts(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        counts: dict = {}
        for t in b.column(text_col).to_pylist():
            for w in find(t.lower()) if t else []:
                counts[w] = counts.get(w, 0) + 1
        keys = sorted(counts)
        return pa.table({
            "tok": pa.array(keys, pa.string()),
            "n": pa.array([counts[k] for k in keys], pa.int64()),
        })

    vocab_df = hash_grouped_agg(
        ds.map_batches(partial_counts, batch_format="pyarrow"),
        "tok", {"n": ("n", "sum")},
    ).to_pandas()
    if len(vocab_df) > max_vocab:
        raise ValueError(
            f"vocabulary has {len(vocab_df)} distinct words > max_vocab={max_vocab}"
        )
    word_counts = dict(zip(vocab_df.get("tok", []), (int(v) for v in vocab_df.get("n", []))))
    seqs = {w: tuple(w) for w in word_counts}
    out_rank: list = []
    out_l: list = []
    out_r: list = []
    out_m: list = []
    out_c: list = []
    for rank in range(n_merges):
        pair_counts: dict = {}
        for w, cnt in word_counts.items():
            s = seqs[w]
            for i in range(len(s) - 1):
                p = (s[i], s[i + 1])
                pair_counts[p] = pair_counts.get(p, 0) + cnt
        if not pair_counts:
            break
        best_cnt = max(pair_counts.values())
        if best_cnt < 2:
            break  # nothing repeats: further merges are arbitrary
        left, right = min(p for p, c in pair_counts.items() if c == best_cnt)
        merged = left + right
        for w, s in seqs.items():
            if left not in s:
                continue
            ns: list = []
            i = 0
            while i < len(s):
                if i + 1 < len(s) and s[i] == left and s[i + 1] == right:
                    ns.append(merged)
                    i += 2
                else:
                    ns.append(s[i])
                    i += 1
            seqs[w] = tuple(ns)
        out_rank.append(rank)
        out_l.append(left)
        out_r.append(right)
        out_m.append(merged)
        out_c.append(best_cnt)
    return pa.table({
        "rank": pa.array(out_rank, pa.int64()),
        "left": pa.array(out_l, pa.string()),
        "right": pa.array(out_r, pa.string()),
        "merged": pa.array(out_m, pa.string()),
        "count": pa.array(out_c, pa.int64()),
    })


def extract_matches(
    ds: ray.data.Dataset,
    pattern: str,
    text_col: str = "text",
) -> ray.data.Dataset:
    """Regex extraction table: every non-overlapping match of ``pattern``
    explodes to its own row (doc_id, match_idx, match) — the structured-
    field mining pass (IDs, entities, markup) over a text column.

    Stateless flat-map with the pattern COMPILED ONCE PER BATCH fn (Python
    ``re``; restrict patterns to RE2-compatible syntax — no lookaround —
    so DuckDB's regexp_extract_all enumerates the identical match set and
    the comparison is cross-engine like pii_scrub's)."""
    import re

    rx = re.compile(pattern)
    if rx.groups:
        raise ValueError(
            "extract_matches patterns must not contain capturing groups — "
            "re.findall would return group contents instead of full matches, "
            "diverging from regexp_extract_all's whole-match convention; use "
            "(?:...) instead"
        )

    def explode(b: pa.Table) -> pa.Table:
        doc_ids: list = []
        idxs: list = []
        matches: list = []
        for did, t in zip(b.column("doc_id").to_pylist(), b.column(text_col).to_pylist()):
            for i, m in enumerate(rx.findall(t) if t else []):
                doc_ids.append(did)
                idxs.append(i)
                matches.append(m)
        return pa.table({
            "doc_id": pa.array(doc_ids, b.column("doc_id").type),
            "match_idx": pa.array(idxs, pa.int64()),
            "match": pa.array(matches, pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


def pmi_collocations(
    ds: ray.data.Dataset,
    min_count: int = 5,
    k: int = 50,
    text_col: str = "text",
    max_vocab: int = 1_000_000,
) -> ray.data.Dataset:
    """Top-k word-bigram collocations by pointwise mutual information
    (Church & Hanks 1990) among bigrams with count ≥ ``min_count`` —
    the statistical phrase-induction pass a tokenizer/vocab pipeline runs.

    PMI is FIXED-POINT: pmi_fp = round((log2(c_ab) + 2·log2(T1) −
    log2(c_a) − log2(c_b) − log2(T2)) · 10⁶) int64, each term a scalar
    ``math.log2`` evaluated in exactly this order (the log-sum form never
    overflows — integer products of corpus-scale counts would; and engine
    and golden share the same libm call, no numpy-SIMD ulp drift).

    Plan: one counting pass emits batch-local unigram AND bigram partials
    (tagged by level) → one keyed merge → unigram table is a bounded
    broadcast (``max_vocab`` refusal, the LM contract); qualifying bigram
    rows (already FINAL per partition after the merge) compute pmi_fp
    in-place → per-block top-k → tiny global sort+limit (top_ngrams'
    boundary-stable tie-break: pmi desc, gram asc).
    """
    import math
    import re

    from pdftext_ray.ops.relational import hash_grouped_agg

    def partials(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        uni: dict = {}
        bi: dict = {}
        for t in b.column(text_col).to_pylist():
            toks = find(t.lower()) if t else []
            for w in toks:
                uni[w] = uni.get(w, 0) + 1
            for j in range(len(toks) - 1):
                g = toks[j] + " " + toks[j + 1]
                bi[g] = bi.get(g, 0) + 1
        keys = sorted(uni) + sorted(bi)
        lvls = [0] * len(uni) + [1] * len(bi)
        cnts = [uni[w] for w in sorted(uni)] + [bi[g] for g in sorted(bi)]
        return pa.table({
            "gram": pa.array(keys, pa.string()),
            "lvl": pa.array(lvls, pa.int8()),
            "n": pa.array(cnts, pa.int64()),
        })

    totals = hash_grouped_agg(
        ds.map_batches(partials, batch_format="pyarrow"),
        ["gram", "lvl"], {"n": ("n", "sum")},
    )

    def split_uni(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("lvl"), 0)).select(["gram", "n"])

    uni_df = totals.map_batches(split_uni, batch_format="pyarrow").to_pandas()
    if len(uni_df) > max_vocab:
        raise ValueError(
            f"vocabulary has {len(uni_df)} distinct tokens > max_vocab={max_vocab}"
        )
    t1 = int(uni_df["n"].sum()) if len(uni_df) else 0
    uni_counts = dict(zip(uni_df.get("gram", []), uni_df.get("n", [])))

    def bi_only(t: pa.Table) -> pa.Table:
        return t.filter(pc.equal(t.column("lvl"), 1)).select(["gram", "n"])

    bi_ds = totals.map_batches(bi_only, batch_format="pyarrow").materialize()
    import ray.data.aggregate as _agg

    # T2 = total bigram occurrences; one aggregate pass (None on empty)
    agg = bi_ds.aggregate(_agg.Sum("n"))
    t2 = int((agg or {}).get("sum(n)") or 0)
    ref = ray.put((uni_counts, t1, t2))

    def score(t: pa.Table) -> pa.Table:
        counts, tt1, tt2 = ray.get(ref)
        grams = t.column("gram").to_pylist()
        ns = t.column("n").to_pylist()
        out_g: list = []
        out_n: list = []
        out_fp: list = []
        for g, c_ab in zip(grams, ns):
            if c_ab < min_count:
                continue
            a, b = g.split(" ", 1)
            c_a, c_b = counts[a], counts[b]
            val = (
                math.log2(c_ab) + 2 * math.log2(tt1)
                - math.log2(c_a) - math.log2(c_b) - math.log2(tt2)
            )
            out_g.append(g)
            out_n.append(int(c_ab))
            out_fp.append(int(round_half_away(val * 1e6, 0)))
        tab = pa.table({
            "gram": pa.array(out_g, pa.string()),
            "n": pa.array(out_n, pa.int64()),
            "pmi_fp": pa.array(out_fp, pa.int64()),
        })
        idx = pc.sort_indices(tab, sort_keys=[("pmi_fp", "descending"), ("gram", "ascending")])[:k]
        return tab.take(idx)

    def shape(t: pa.Table) -> pa.Table:
        return pa.table({
            "gram": t.column("gram"),
            "n": t.column("n"),
            # pmi_fp/1e6: IEEE division of the same ints on both sides —
            # bit-identical to the golden with no rounding step (and so no
            # half-to-even/half-away ambiguity, invariant 2)
            "pmi": pc.divide(pc.cast(t.column("pmi_fp"), pa.float64()), 1e6),
        })

    return (
        bi_ds.map_batches(score, batch_format="pyarrow")
        .sort(["pmi_fp", "gram"], descending=[True, False])
        .limit(k)
        .map_batches(shape, batch_format="pyarrow")
    )


def chunk_documents(
    ds: ray.data.Dataset,
    window: int = 128,
    overlap: int = 32,
    text_col: str = "text",
) -> ray.data.Dataset:
    """RAG-style overlapping token-window chunking: each doc explodes into
    windows of ``window`` \\S+ tokens advancing by ``stride = window −
    overlap``; the final windows may be short (start positions are
    ``range(0, n_tokens, stride)`` — every token appears in ≥1 chunk, and
    consecutive chunks share exactly ``overlap`` tokens until the tail).

    Stateless per-doc flat-map — embarrassingly parallel; emitted rows
    carry (doc_id, chunk_idx, chunk_tokens, chunk_text) with chunk text
    re-joined by single spaces (the repo-wide token convention, so the SQL
    oracle's list_slice/array_to_string reproduces it exactly).
    """
    import re

    if not 0 <= overlap < window:
        raise ValueError(f"need 0 <= overlap < window, got {overlap}/{window}")
    stride = window - overlap

    def explode(b: pa.Table) -> pa.Table:
        find = re.compile(r"\S+").findall
        doc_ids: list = []
        idxs: list = []
        ntoks: list = []
        texts: list = []
        for did, t in zip(b.column("doc_id").to_pylist(), b.column(text_col).to_pylist()):
            toks = find(t) if t else []
            for ci, start in enumerate(range(0, len(toks), stride)):
                piece = toks[start : start + window]
                doc_ids.append(did)
                idxs.append(ci)
                ntoks.append(len(piece))
                texts.append(" ".join(piece))
        return pa.table({
            "doc_id": pa.array(doc_ids, b.column("doc_id").type),
            "chunk_idx": pa.array(idxs, pa.int64()),
            "chunk_tokens": pa.array(ntoks, pa.int64()),
            "chunk_text": pa.array(texts, pa.string()),
        })

    return ds.map_batches(explode, batch_format="pyarrow")


_NONASCII_RE = r"[^\x00-\x7F]"


def normalize_text_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Canonical text normalization: Unicode NFC → lowercase → collapse
    whitespace runs to one space → trim. The cleaning pass that precedes
    hashing/dedup so byte-different but canonically-equal documents
    (decomposed accents, stray double spaces, case variants) collide.

    Vectorized fast path: lowercase/collapse/trim are pure Arrow (RE2 +
    utf8proc) kernels. NFC has no Arrow kernel, so rows are FIRST screened
    with a vectorized non-ASCII regex and only the (typically rare) hits
    take the per-row ``unicodedata.normalize`` path — ASCII corpora never
    leave Arrow. Matches SQL
    ``trim(regexp_replace(lower(nfc_normalize(t)), '\\s+', ' ', 'g'))``
    (DuckDB and CPython both normalize via the Unicode tables; verified on
    the planted NFD sequences the gate uses).
    """
    import unicodedata

    text = batch.column(text_col).combine_chunks()
    mask = pc.fill_null(pc.match_substring_regex(text, _NONASCII_RE), False)
    if pc.any(mask).as_py():
        # normalize ONLY the flagged rows (one python pass over hits, not
        # the batch); merge back with one Arrow if_else — unflagged rows
        # never leave Arrow even in a batch with some non-ASCII content
        flag = np.asarray(mask)
        idx = np.flatnonzero(flag)
        hits = text.take(pa.array(idx, pa.int64())).to_pylist()
        repl = np.full(len(flag), None, dtype=object)
        repl[idx] = [
            unicodedata.normalize("NFC", v) if v is not None else None for v in hits
        ]
        text = pc.if_else(mask, pa.array(repl.tolist(), pa.string()), text)
    lowered = pc.utf8_lower(text)
    collapsed = pc.replace_substring_regex(lowered, r"\s+", " ")
    trimmed = pc.utf8_trim_whitespace(collapsed)
    cols = [batch.column(n) if n != text_col else trimmed for n in batch.column_names]
    return pa.Table.from_arrays(cols, names=batch.column_names)


def normalize_text(ds: ray.data.Dataset, text_col: str = "text") -> ray.data.Dataset:
    """Stateless vectorized normalization pass (see normalize_text_batch)."""
    import functools

    return ds.map_batches(
        functools.partial(normalize_text_batch, text_col=text_col),
        batch_format="pyarrow",
    )
