"""Seeded inputs and their Ray-free references, cached on disk by seed.

Every input is a pure function of (workload, seed, sizes). The references
("goldens") are computed here in one process without Ray:

- extraction: ``kernel.document.extract_document`` on each document's
  page payloads, stored as a flat (doc_id, order, kind, text, media_ref)
  table;
- daily increment: Python sets of md5(text), cumulative doc counts and the
  near-duplicate clusters implied by the planted repeats.

A cache entry is built in a temporary directory and renamed into place, so
a run that dies mid-way leaves no half-written entry behind.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import time
from dataclasses import asdict, dataclass

import pyarrow as pa
import pyarrow.parquet as pq

from pdftext_ray.corpus import generate_document
from pdftext_ray.kernel.document import extract_document
from pdftext_ray.pipelines.corpus_io import SIZE_BUCKET_THRESHOLD, _rows_to_input_table
from pdftext_ray.stages.schemas import FLAT_SPAN_SCHEMA

# bump when what is generated, or how its reference is computed, changes;
# the cache key holds only this, the workload, the seed and the sizes
INPUTS_VERSION = 2

HEAVY_PAGES = 40  # pages of each heavy document
# heavy documents take their pages from generator indices far above any
# small document's, so no page appears twice in a corpus
_HEAVY_INDEX_BASE = 1 << 24
DAYS = 2  # crawl days in a daily replay; the second runs against the first's artifacts
WARM_DAYS = 1
EXACT_SHARE = 0.1  # share of a day's docs that copy an earlier doc
NEAR_SHARE = 0.1  # share that copy an earlier doc with one word replaced


@dataclass(frozen=True)
class ExtractSizes:
    small_docs: int
    heavy_docs: int = 0
    warm_docs: int = 48
    slice_docs: int = 200  # kernel/stage probe slice (traced runs)


@dataclass(frozen=True)
class DailySizes:
    docs_per_day: int
    warm_docs_per_day: int = 50


SIZES = {
    "extract_flagship": ExtractSizes(small_docs=2000),
    "extract_heavy": ExtractSizes(small_docs=600, heavy_docs=20),
    "daily_increment": DailySizes(docs_per_day=1000),
}
SMOKE_SIZES = {
    "extract_flagship": ExtractSizes(small_docs=120, warm_docs=12, slice_docs=100),
    "extract_heavy": ExtractSizes(small_docs=100, heavy_docs=2, warm_docs=12, slice_docs=100),
    "daily_increment": DailySizes(docs_per_day=60, warm_docs_per_day=30),
}


def prepare(cache_root: str, workload: str, seed: int, sizes) -> tuple:
    """Return (input dir, info); build the entry when it is not cached."""
    key = hashlib.sha1(json.dumps([INPUTS_VERSION, workload, seed, asdict(sizes)])
                       .encode()).hexdigest()[:12]
    path = os.path.join(cache_root, f"{workload}-s{seed}-{key}")
    info = {"path": os.path.relpath(path), "cached": os.path.isdir(path), "gen_s": 0.0}
    if not info["cached"]:
        t0 = time.perf_counter()
        tmp = f"{path}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        if isinstance(sizes, ExtractSizes):
            _build_extract(tmp, seed, sizes)
        else:
            _build_daily(tmp, seed, sizes)
        os.rename(tmp, path)
        info["gen_s"] = time.perf_counter() - t0
    return path, info


# ---------------------------------------------------------------------------
# extraction corpora
# ---------------------------------------------------------------------------

def payloads_of(spans) -> list:
    return [s["text"] for s in spans if s["kind"] == "text"]


def _heavy_document(j: int, seed: int) -> dict:
    """Pages of consecutive generated documents, concatenated until the
    document has HEAVY_PAGES pages and is past the size threshold."""
    spans, n_pages, n_bytes = [], 0, 0
    idx = _HEAVY_INDEX_BASE + j * 4 * HEAVY_PAGES
    while n_pages < HEAVY_PAGES or n_bytes <= SIZE_BUCKET_THRESHOLD:
        for s in generate_document(idx, seed, "mixed")["spans"]:
            spans.append(dict(s, offset=len(spans)))
            if s["kind"] == "text":
                n_pages += 1
                n_bytes += len(s["text"].encode("utf-8"))
        idx += 1
    return {"doc_id": f"heavy-{j:05d}", "spans": spans}


def _write_corpus(path: str, rows) -> None:
    """Hive ``size_bucket=small|large`` layout, as the program's ingest
    writes it, with its file sizing (max(200, n // 96) rows per file)."""
    table = _rows_to_input_table(rows)
    per_file = max(200, len(rows) // 96)
    for bucket in ("small", "large"):
        mask = [(b > SIZE_BUCKET_THRESHOLD) == (bucket == "large")
                for b in table.column("n_bytes").to_pylist()]
        part = table.filter(pa.array(mask))
        if not len(part):
            continue
        out = os.path.join(path, f"size_bucket={bucket}")
        os.makedirs(out)
        for k in range(0, len(part), per_file):
            pq.write_table(part.slice(k, per_file),
                           os.path.join(out, f"part-{k // per_file:05d}.parquet"))


def golden_table(rows) -> pa.Table:
    """``extract_document`` over the given rows, flattened. The program's
    ``corpus_io.expected_flat_table`` regenerates docs by index instead, so
    it cannot cover the skipped indices or the heavy documents."""
    cols = {name: [] for name in FLAT_SPAN_SCHEMA.names}
    for r in rows:
        for s in extract_document(payloads_of(r["spans"]))["spans"]:
            cols["doc_id"].append(r["doc_id"])
            for name in ("order", "kind", "text", "media_ref"):
                cols[name].append(s[name])
    return pa.Table.from_pydict(cols, schema=FLAT_SPAN_SCHEMA)


def _small_documents(seed: int, start: int, n: int) -> tuple:
    """``n`` generated docs from index ``start`` on, skipping the rare one
    past the size threshold, so every seed routes the same way; also
    returns the next unused index."""
    docs = []
    while len(docs) < n:
        doc = generate_document(start, seed, "mixed")
        start += 1
        if sum(len(s["text"].encode("utf-8")) for s in doc["spans"]) <= SIZE_BUCKET_THRESHOLD:
            docs.append({"doc_id": doc["doc_id"], "spans": doc["spans"]})
    return docs, start


def _build_extract(path: str, seed: int, sizes: ExtractSizes) -> None:
    small, nxt = _small_documents(seed, 0, sizes.small_docs)
    heavy = [_heavy_document(j, seed) for j in range(sizes.heavy_docs)]
    warm, _ = _small_documents(seed, nxt, sizes.warm_docs)
    if heavy:  # the warm-up also runs the page-exploded branch
        warm.append(_heavy_document(sizes.heavy_docs, seed))
    rows = small + heavy
    _write_corpus(os.path.join(path, "corpus"), rows)
    _write_corpus(os.path.join(path, "warm"), warm)
    pq.write_table(golden_table(rows), os.path.join(path, "golden.parquet"))
    pq.write_table(golden_table(warm), os.path.join(path, "warm_golden.parquet"))
    # the probe slice: the first small docs, plus two heavy docs when present
    pq.write_table(_rows_to_input_table(small[:sizes.slice_docs] + heavy[:2]),
                   os.path.join(path, "slice.parquet"))


# ---------------------------------------------------------------------------
# daily crawl increments
# ---------------------------------------------------------------------------

_ID_STRIDE = 1 << 32  # day d's ids are d * stride + i: unique and monotone


def _vocab(rng: random.Random, n: int = 20000) -> list:
    letters = "abcdefghijklmnopqrstuvwxyz"
    return ["".join(rng.choice(letters) for _ in range(rng.randint(3, 9))) for _ in range(n)]


def _crawl(rng: random.Random, days: int, per_day: int, exact: float, near: float) -> list:
    """Days of (ids, texts, planted). Each doc is, with probability
    ``exact``, a copy of an earlier doc (any smaller id, this day's
    included), with probability ``near`` such a copy with one word
    replaced, and otherwise a fresh random word sequence, so no two fresh
    docs are near each other. ``planted`` maps a repeat's id to its source."""
    vocab = _vocab(rng)
    out, earlier = [], []
    for d in range(days):
        ids, texts, planted = [], [], {}
        for i in range(per_day):
            doc_id, draw = d * _ID_STRIDE + i, rng.random()
            if earlier and draw < exact + near:
                src_id, src_text = earlier[rng.randrange(len(earlier))]
                words = src_text.split()
                if draw >= exact:
                    w = rng.randrange(len(words))
                    old = words[w]
                    while words[w] == old:
                        words[w] = rng.choice(vocab)
                text = " ".join(words)
                planted[doc_id] = src_id
            else:
                text = " ".join(rng.choice(vocab) for _ in range(rng.randint(50, 150)))
            ids.append(doc_id)
            texts.append(text)
            earlier.append((doc_id, text))
        out.append((ids, texts, planted))
    return out


def _expected(days: list) -> list:
    """Per-day reference values for run_increment's outputs."""
    seen, n_docs, parent, out = set(), 0, {}, []

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for ids, texts, planted in days:
        hashes = {hashlib.md5(t.encode("utf-8")).hexdigest() for t in texts}
        novel = hashes - seen
        seen |= hashes
        n_docs += len(ids)
        for a, b in planted.items():
            parent.setdefault(a, a)
            parent.setdefault(b, b)
            ra, rb = find(a), find(b)
            parent[max(ra, rb)] = min(ra, rb)
        out.append({
            "new_docs": len(ids),
            "novel_hashes": len(novel),
            "hashes_rows": len(seen),
            "sigs_rows": n_docs,
            "flagged": len(planted),
            # cluster label of every doc in a planted cluster: its min member
            "labels": sorted((n, find(n)) for n in parent),
        })
    return out


def _write_days(path: str, days: list) -> None:
    os.makedirs(path)
    for d, (ids, texts, _planted) in enumerate(days):
        pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                                 "text": pa.array(texts, pa.string())}),
                       os.path.join(path, f"day-{d:03d}.parquet"))
    with open(os.path.join(path, "expected.json"), "w") as f:
        json.dump(_expected(days), f)


def _build_daily(path: str, seed: int, sizes: DailySizes) -> None:
    rng = random.Random(seed)
    _write_days(os.path.join(path, "days"), _crawl(
        rng, DAYS, sizes.docs_per_day, EXACT_SHARE, NEAR_SHARE))
    _write_days(os.path.join(path, "warm"), _crawl(
        rng, WARM_DAYS, sizes.warm_docs_per_day, EXACT_SHARE, NEAR_SHARE))
