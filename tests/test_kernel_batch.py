"""The batch kernel pass: one decode, word dedup and span-break pass over
every page of an Arrow batch must give each document exactly what it gets
alone, keep every page to itself, and fail only the document at fault."""

import pickle

import pyarrow as pa
import pytest

from pdftext_ray.corpus import CASES, NUM_CASES, generate_document
from pdftext_ray.kernel.decode import LazyChars, decode_page_dedup, decode_pages
from pdftext_ray.kernel.document import (
    ExtractConfig,
    finish_pages,
    process_batch,
    process_document,
    process_page,
)
from pdftext_ray.payload import PayloadWriter, parse_payload
from pdftext_ray.pipelines.corpus_io import _rows_to_input_table
from pdftext_ray.stages import extract as X

CONFIGS = [
    ExtractConfig(),
    ExtractConfig(quote_loosebox=False),
    ExtractConfig(flatten_pdf=True),
    ExtractConfig(keep_chars=True),
]
MODES = list(X._MODES)
PAGE_BBOX = [0.0, 0.0, 200.0, 100.0]
FONT = ("F", 0, 10.0, 400.0)


def _word_page(text="word", x=10.0, idx=0, rotation=0):
    w = PayloadWriter(idx, PAGE_BBOX, rotation)
    for k, ch in enumerate(text):
        w.add_char(ch, (x + 6.0 * k, 50.0, x + 6.0 * (k + 1), 60.0), FONT)
    return w.build()


def _plain(obj):
    """``obj`` with every LazyChars materialized (it compares by identity)."""
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, LazyChars)):
        return [_plain(v) for v in obj]
    return obj


def _payloads(doc):
    return [s["text"] for s in doc["spans"] if s["kind"] == "text"]


def _mixed_docs():
    """Every corpus case (rotated 90/180/270, shadow_dup, char_rotation,
    superscripts, links, form chars, ...) twice, plus a doc whose first
    page has no chars."""
    docs = [generate_document(i) for i in range(2 * NUM_CASES)]
    empty = PayloadWriter(0, PAGE_BBOX).build()
    docs.insert(5, {"doc_id": "doc-empty-page", "spans": [
        {"kind": "text", "text": empty, "media_ref": "", "offset": 0},
        {"kind": "text", "text": _word_page(idx=1), "media_ref": "", "offset": 1},
    ]})
    return docs


def _table(docs):
    return _rows_to_input_table(
        [{"doc_id": d["doc_id"], "spans": d["spans"]} for d in docs]).select(["doc_id", "spans"])


def _run(stage, table, batch_size):
    return pa.concat_tables([stage(table.slice(k, batch_size))
                             for k in range(0, len(table), batch_size)])


@pytest.mark.parametrize("cfg", CONFIGS, ids=["default", "tight_quote", "flatten", "keep_chars"])
def test_batch_pass_equals_per_document(cfg):
    docs = _mixed_docs()
    assert {d.get("_case") for d in docs} >= set(CASES)
    table = _table(docs)
    for doc in docs:
        payloads = _payloads(doc)
        # every page its own batch of one: the per-page pass
        per_page = finish_pages(
            [process_page(decode_page_dedup(p, cfg.quote_loosebox, cfg.flatten_pdf), cfg)
             for p in payloads], cfg)
        assert _plain(process_document(payloads, cfg)) == _plain(per_page), doc["doc_id"]
    for mode in MODES:
        shape, schema = X._MODES[mode]
        want = X._table(
            [row for d in docs for row in shape(d["doc_id"], process_document(_payloads(d), cfg), cfg, None)],
            schema(cfg))
        stage = X.Extractor(mode, cfg)
        for batch_size in (1, 7, 128):
            assert _run(stage, table, batch_size).equals(want), (mode, batch_size)


def _spans_of(page):
    return [s for b in page["blocks"] for ln in b["lines"] for s in ln["spans"]]


def test_pages_never_meet_in_the_batch():
    """Word dedup and span breaks stay within a page: two pages holding the
    same word at the same rounded bbox and font both keep it, a page that
    ends mid-word does not run into the next page's first word (whose
    shadow copy is still dropped), and each page's char indices start at 0."""
    pages = [_word_page("word word", idx=0), _word_page("word word", idx=1)]
    shadow = PayloadWriter(1, PAGE_BBOX)
    for x in (10.0, 10.2):  # the copy's bbox rounds to the first's
        for k, ch in enumerate("ab "):
            shadow.add_char(ch, (x + 6.0 * k, 50.0, x + 6.0 * (k + 1), 60.0), FONT)
    ends_mid_word = [_word_page("xy"), shadow.build()]
    for pair, want in ((pages, ["word word"] * 2), (ends_mid_word, ["xy", "ab "])):
        for docs in ([pair], [[p] for p in pair]):
            got = [_spans_of(pg) for doc in process_batch(docs) for pg in doc]
            assert ["".join(s["text"] for s in spans) for spans in got] == want
            for spans, text in zip(got, want):
                assert spans[0]["char_start_idx"] == 0
                assert spans[-1]["char_end_idx"] == len(text) - 1
    batch = decode_pages([parse_payload(p) for p in pages])
    assert batch.starts.tolist() == [0, 9, 18]
    assert [pg.arrays.idx.tolist() for pg in batch.pages] == [list(range(9))] * 2


def test_page_in_batch_pickles_as_page_alone():
    """A page cut from a 32-page batch carries only its own arrays: it
    pickles to the same bytes as the page decoded alone."""
    payloads = [p for i in range(40) for p in _payloads(generate_document(i))][:32]
    assert len(payloads) == 32
    (together,) = process_batch([payloads])
    for k, p in enumerate(payloads):
        ((alone,),) = process_batch([[p]])
        assert len(pickle.dumps(together[k], pickle.HIGHEST_PROTOCOL)) == \
            len(pickle.dumps(alone, pickle.HIGHEST_PROTOCOL)), k


def _bad_page(kind):
    if kind == "parse":
        return "P|0|not,a,valid|payload\nCB|zz"
    if kind == "lengths":  # three codepoints, two font ids
        good = _word_page("abc")
        short = _word_page("ab")
        cf = next(ln for ln in short.split("\n") if ln.startswith("CF|"))
        return "\n".join(cf if ln.startswith("CF|") else ln for ln in good.split("\n"))
    if kind == "rotation":
        return _word_page("abc").replace("P|0|0.0,0.0,200.0,100.0|0", "P|0|0.0,0.0,200.0,100.0|45", 1)
    w = PayloadWriter(0, PAGE_BBOX)  # a lone surrogate codepoint
    w.add_char("\ud800", (10.0, 50.0, 16.0, 60.0), FONT)
    return w.build()


def _with_bad_doc(kind, at):
    docs = [generate_document(i) for i in range(9)]
    bad = {"doc_id": "doc-bad", "spans": [
        {"kind": "text", "text": _word_page("ok"), "media_ref": "", "offset": 0},
        {"kind": "text", "text": _bad_page(kind), "media_ref": "", "offset": 1},
    ]}
    return docs, _table(docs[:at] + [bad] + docs[at:])


@pytest.mark.parametrize("kind, message", [
    ("parse", "could not convert"),
    ("lengths", "char arrays disagree"),
    ("rotation", "Rotation must be one of"),
    ("codepoint", "utf-32"),
])
def test_bad_doc_mid_batch_fails_alone(kind, message):
    docs, table = _with_bad_doc(kind, at=4)
    clean = X.Extractor("spans")(_table(docs)).to_pylist()
    got = X.Extractor("spans")(table).to_pylist()
    assert [r["doc_id"] for r in got] == [d["doc_id"] for d in docs[:4]] + ["doc-bad"] + \
        [d["doc_id"] for d in docs[4:]]
    bad = got.pop(4)
    assert message in bad["error"] and bad["spans"] == [] and bad["n_pages"] == 0
    assert got == clean
    # the page-exploded plan: only the bad page's state is an error marker
    states = X.PageExtractor()(X.explode_pages(table))
    errors = [pickle.loads(s).get("__error__") for s in states.column("page_state").to_pylist()]
    ids = states.column("doc_id").to_pylist()
    assert [(i, message in e) for i, e in zip(ids, errors) if e] == [("doc-bad", True)]


def test_bad_doc_mid_batch_raises_in_plain_mode():
    _, table = _with_bad_doc("parse", at=4)
    with pytest.raises(ValueError, match="could not convert"):
        X.Extractor("plain")(table)
