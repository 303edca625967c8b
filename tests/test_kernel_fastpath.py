"""Property test: the vectorized decode+dedup fast path is char-for-char
equivalent to decode_page + cluster.deduplicate_chars on every corpus case;
its lazy char views survive the page-state pickle by reference."""

import pickle

import numpy as np
import pytest

from pdftext_ray.corpus import CASES, NUM_CASES, generate_document
from pdftext_ray.kernel import cluster, links
from pdftext_ray.kernel.decode import LazyChars, decode_page, decode_page_dedup
from pdftext_ray.kernel.document import plain_text, process_page, span_sequence


def test_fastpath_equivalent_on_all_cases():
    for i in range(2 * NUM_CASES):
        doc = generate_document(i)
        for s in doc["spans"]:
            if s["kind"] != "text":
                continue
            slow = cluster.deduplicate_chars(decode_page(s["text"]).chars)
            fast = decode_page_dedup(s["text"]).chars
            assert slow == fast, (doc["doc_id"], doc["_case"])


def test_fastpath_quote_loosebox_respected():
    doc = generate_document(18)  # quote_char case
    payload = next(s["text"] for s in doc["spans"] if s["kind"] == "text")
    a = decode_page_dedup(payload, quote_loosebox=False).chars
    b = cluster.deduplicate_chars(decode_page(payload, quote_loosebox=False).chars)
    assert a == b


def _span_key(s):
    return (
        s["text"], s["bbox"], s["rotation"], s["font"],
        s["char_start_idx"], s["char_end_idx"], list(s["chars"]),
    )


def test_array_span_fold_equivalent_on_all_cases():
    """get_spans_from_arrays (hot path) must equal the scalar get_spans fold
    on every corpus case, including the lazily-materialized char tuples."""
    for i in range(2 * NUM_CASES):
        doc = generate_document(i)
        for s in doc["spans"]:
            if s["kind"] != "text":
                continue
            page = decode_page_dedup(s["text"])
            if page.arrays is None:
                continue
            fast = cluster.get_spans_from_arrays(page.arrays)
            slow = cluster.get_spans(page.chars)
            assert [_span_key(x) for x in fast] == [_span_key(x) for x in slow], (
                doc["doc_id"], doc["_case"])


def test_array_span_fold_superscript_geometry_break():
    """A planted superscript (short char above the running line, to the
    right) must split the span at the same index in both folds."""
    from pdftext_ray.payload import PayloadWriter

    w = PayloadWriter(0, [0.0, 0.0, 200.0, 100.0])
    font = ("F", 0, 10.0, 400.0)
    x = 5.0
    for ch in "abc":
        w.add_char(ch, (x, 50.0, x + 6.0, 60.0), font)
        x += 6.0
    # superscript digit in RAW bottom-left coords: higher y than the run
    # (flips to a smaller top-left y1), short, right of the run's x2
    w.add_char("2", (x + 1.0, 58.0, x + 5.0, 63.0), font)
    page = decode_page_dedup(w.build())
    fast = cluster.get_spans_from_arrays(page.arrays)
    slow = cluster.get_spans(page.chars)
    assert [_span_key(x) for x in fast] == [_span_key(x) for x in slow]
    assert len(fast) == 2 and fast[1]["text"] == "2"


def _page_spans(page):
    return [s for b in page["blocks"] for ln in b["lines"] for s in ln["spans"]]


def _case_pages(case):
    doc = generate_document(CASES.index(case))
    return [process_page(decode_page_dedup(s["text"]))
            for s in doc["spans"] if s["kind"] == "text"]


@pytest.mark.parametrize("case", ["links", "rotated_90", "shadow_dup"])
def test_page_state_pickles_chars_by_reference(case):
    """The page-exploded shuffle pickles whole pages (stages.extract
    PageExtractor). Every span's chars must come back as a LazyChars over
    the page's ONE PageArrays (no per-char tuples on the wire) and read the
    same chars; link splitting and the outputs after it must not change."""
    pages = _case_pages(case)
    spans = [s for pg in pages for s in _page_spans(pg)]
    arrays = [_page_spans(pg)[0]["chars"].a for pg in pages if _page_spans(pg)]
    if case == "rotated_90":
        assert {pg["rotation"] for pg in pages} == {90}
    if case == "shadow_dup":  # word dedup dropped chars: idx is not arange
        assert any(not np.array_equal(a.idx, np.arange(len(a))) for a in arrays)
    # a span whose chars were materialized before pickling
    materialized = spans[0]["chars"][0]

    copies = [pickle.loads(pickle.dumps(pg, pickle.HIGHEST_PROTOCOL)) for pg in pages]
    for pg, cp in zip(pages, copies):
        got = _page_spans(cp)
        assert [list(s["chars"]) for s in got] == [list(s["chars"]) for s in _page_spans(pg)]
        assert all(isinstance(s["chars"], LazyChars) for s in got)
        assert len({id(s["chars"].a) for s in got}) <= 1
    assert _page_spans(copies[0])[0]["chars"][0] == materialized

    for doc in (pages, copies):
        links.add_links_and_refs(doc, [pg["links"] for pg in doc])
    if case == "links":  # link splitting ran on the unpickled chars
        assert any(s["url"] for pg in copies for s in _page_spans(pg))
    assert span_sequence(copies) == span_sequence(pages)
    assert plain_text(copies, sort=True) == plain_text(pages, sort=True)
