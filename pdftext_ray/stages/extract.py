"""Ray Data extraction stages — task-pool map_batches UDFs over Arrow.

Every output mode ("spans", "plain", "paginated", "dict", "tables") is one
row shaper over a finished document's pages (``_MODES``), and both physical
plans run it through one error policy (``_rows``):

* **doc-parallel** (default): :class:`Extractor` — one row = one document,
  one kernel pass (``kernel.document.process_batch``) per Arrow batch;
  embarrassingly parallel, zero shuffles. Right at 10^12-doc scale because
  the unit of skew is a doc. It runs as a task pool:
  ``ds.map_batches(Extractor(mode, cfg), batch_format="pyarrow")`` pickles
  the instance (a mode and a config) per task, and the warm kernel state
  (imports, unicode tables, compiled regexes) lives at module level in
  Ray's reused worker processes (SURVEY.md §2.3 ST1; the reference holds a
  pdfium doc per ProcessPoolExecutor worker, pdftext/extraction.py:32-41).
* **page-exploded** (heavy tail): pathological documents (hundreds of pages)
  explode to one row per page, ``PageExtractor`` decodes each page row, and
  ``groupby(doc_id).map_groups(assemble)`` reassembles the document (the
  only shuffle, keyed by doc_id; SURVEY.md §4 "skew"). Pages do NOT decode
  in parallel today: Ray fuses explode → PageExtractor into tasks that
  bundle at least a page batch of input DOC rows, so a doc's pages never
  leave the task that exploded them (see ``pipelines.extract._exploded``).
  Page state crosses the shuffle pickled, with each page's char arrays
  written once (``kernel.decode.LazyChars``).
"""

from __future__ import annotations

import pickle
import traceback
from typing import List

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from pdftext_ray.kernel.document import (
    ExtractConfig,
    finish_document,
    finish_pages,
    merge_text,
    plain_text,
    process_batch,
    shape_dictionary,
    span_output,
)
from pdftext_ray.kernel.tables import table_cell_text
from pdftext_ray.stages import schemas


def _span_texts(batch: pa.Table):
    """Every span of the batch's ``spans`` column, in one Arrow walk:
    ``(rows, is_text, texts)`` — each span's input row (int64, ascending),
    a mask of ``kind == 'text'`` and the span texts (Arrow). Null lists give
    no spans; chunks and slices are resolved by ``list_flatten`` /
    ``list_parent_indices`` (a chunk's raw offsets/values are UNSLICED)."""
    spans = batch.column("spans")
    if pa.types.is_null(spans.type.value_type):
        # a degenerate all-empty/null column (e.g. schema-inferred upstream)
        return np.zeros(0, np.int64), np.zeros(0, bool), pa.chunked_array([], pa.string())
    flat = pc.list_flatten(spans)
    rows = pc.list_parent_indices(spans).to_numpy().astype(np.int64, copy=False)
    is_text = pc.equal(pc.struct_field(flat, "kind"), "text").fill_null(False).to_numpy()
    return rows, is_text, pc.struct_field(flat, "text")


def _batch_payloads(batch: pa.Table) -> List[List[str]]:
    """Per-row page payload lists (the kind='text' spans' texts)."""
    rows, is_text, texts = _span_texts(batch)
    texts = texts.filter(is_text).to_pylist()
    ends = np.cumsum(np.bincount(rows[is_text], minlength=len(batch))).tolist()
    return [texts[s:e] for s, e in zip([0] + ends[:-1], ends)]


def payload_sizes(batch: pa.Table) -> pa.Table:
    """Pre-pass: per-doc payload byte size for skew bucketing (north rule) —
    the UTF-8 bytes of every span's text, as ingest's ``n_bytes``."""
    rows, _, texts = _span_texts(batch)
    lengths = pc.binary_length(texts).fill_null(0).to_numpy()
    sizes = np.bincount(rows, weights=lengths, minlength=len(batch)).astype(np.int64)
    return batch.append_column("payload_bytes", pa.array(sizes, pa.int64()))


def _span_rows(doc_id, pages, cfg, lookup) -> list:
    out = span_output(pages)
    return [(doc_id, out["spans"], out["n_pages"], out["n_chars"], "")]


def _table_rows(doc_id, pages, cfg, lookup) -> list:
    """T1: one row per (page, table) with clustered cell text. The regions
    are the page payload's own or, with external inputs (J5), the
    ``(doc_id, page)`` entry of ``lookup``. Cell text reads the working
    pages' chars, which every span keeps whatever ``cfg.keep_chars`` says."""
    out = []
    for page in pages:
        tables, img_size = (
            (page["tables"], page["img_size"]) if lookup is None
            else lookup.get((doc_id, page["page"]), ((), None))
        )
        if tables and img_size:
            out += [(doc_id, page["page"], t, cells)
                    for t, cells in enumerate(table_cell_text(tables, page, img_size))]
    return out


# mode → (rows of one finished doc: (doc_id, pages, cfg, lookup) → [row
# tuple], output schema of cfg)
_MODES = {
    "spans": (_span_rows, lambda cfg: schemas.SPAN_SEQ_SCHEMA),
    "plain": (
        lambda doc_id, pages, cfg, lookup: [(doc_id, plain_text(pages, sort=cfg.sort, hyphens=cfg.hyphens))],
        lambda cfg: schemas.PLAIN_TEXT_SCHEMA,
    ),
    # reference paginated_plain_text_output (pdftext/extraction.py:77-81)
    "paginated": (
        lambda doc_id, pages, cfg, lookup: [
            (doc_id, pg["page"], merge_text(pg, sort=cfg.sort, hyphens=cfg.hyphens).strip()) for pg in pages
        ],
        lambda cfg: schemas.PAGINATED_TEXT_SCHEMA,
    ),
    "dict": (
        lambda doc_id, pages, cfg, lookup: [(doc_id, shape_dictionary(pages, cfg))],
        lambda cfg: schemas.dictionary_schema(cfg.keep_chars),
    ),
    "tables": (_table_rows, lambda cfg: schemas.TABLE_SCHEMA),
}


class PageError(RuntimeError):
    """A page of the doc failed in :class:`PageExtractor`; the message is
    that page's traceback."""


def _rows(mode: str, doc_id: str, pages, src, cfg: ExtractConfig, lookup=None) -> list:
    """The ``mode`` rows of one doc: ``pages(src, cfg)`` gives its finished
    pages, the mode's shaper their rows. The one error policy of both
    plans: in spans mode any failure becomes the doc's one error row, so one
    corrupt document can't fail a whole block repeatedly (SURVEY.md §4
    stragglers/retries); every other mode raises."""
    try:
        return _MODES[mode][0](doc_id, pages(src, cfg), cfg, lookup)
    except Exception as e:
        if mode != "spans":
            raise
        error = str(e) if isinstance(e, PageError) else traceback.format_exc(limit=3)
        return [(doc_id, [], 0, 0, error)]


def _table(rows: list, schema: pa.Schema) -> pa.Table:
    """Row tuples → a table of ``schema``, typed even at zero rows."""
    cols = list(zip(*rows)) if rows else [[] for _ in schema]
    return pa.Table.from_arrays([pa.array(c, f.type) for c, f in zip(cols, schema)], schema=schema)


class Extractor:
    """Doc-parallel stage: input doc rows → the rows of output ``mode``.

    ``table_inputs`` (tables mode) is an ObjectRef of external detector
    regions (doc_id, page, tables list<bbox4>, img_size list2), put once by
    the driver and looked up once per task: the reference's
    ``table_output(pdf_path, table_inputs)`` (pdftext/extraction.py:134-155,
    J5) as a keyed broadcast join instead of its positional zip
    (``assert len(pages) == len(table_inputs)``, extraction.py:147)."""

    def __init__(self, mode: str, cfg: ExtractConfig = None, table_inputs=None):
        self.mode, self.cfg, self.table_inputs = mode, cfg or ExtractConfig(), table_inputs
        self.schema = _MODES[mode][1](self.cfg)
        self.lookup = None

    def __call__(self, batch: pa.Table) -> pa.Table:
        if self.table_inputs is not None and self.lookup is None:
            import ray

            t = ray.get(self.table_inputs)
            cols = (t.column(c).to_pylist() for c in ("doc_id", "page", "tables", "img_size"))
            self.lookup = {(d, p): (tables, size) for d, p, tables, size in zip(*cols)}
        rows = []
        processed = process_batch(_batch_payloads(batch), self.cfg)
        # each doc finished before the next is processed (process_batch)
        for doc_id, doc in zip(batch.column("doc_id").to_pylist(), processed):
            rows += _rows(self.mode, doc_id, finish_document, doc, self.cfg, self.lookup)
        return _table(rows, self.schema)


def DocumentExtractor(cfg: ExtractConfig = None) -> Extractor:
    """The flagship stage: input doc rows → span-sequence rows (no shuffle)."""
    return Extractor("spans", cfg)


def flatten_spans(batch: pa.Table) -> pa.Table:
    """Span-sequence rows → one row per span, vectorized via list offsets."""
    spans = batch.column("spans").combine_chunks()
    if isinstance(spans, pa.ChunkedArray):
        spans = spans.chunk(0) if spans.num_chunks else pa.array([], pa.list_(schemas.OUTPUT_SPAN))
    if pa.types.is_null(spans.type.value_type):
        # a degenerate all-empty/null column (e.g. schema-inferred upstream)
        return schemas.FLAT_SPAN_SCHEMA.empty_table()
    counts = pa.compute.list_value_length(spans).fill_null(0).to_numpy(zero_copy_only=False)
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    rep_ids = np.repeat(doc_ids, counts)
    flat = spans.flatten()
    return pa.Table.from_arrays(
        [
            pa.array(rep_ids, pa.string()),
            flat.field("order"),
            flat.field("kind"),
            flat.field("text"),
            flat.field("media_ref"),
        ],
        schema=schemas.FLAT_SPAN_SCHEMA,
    )


# ---------------------------------------------------------------------------
# Page-exploded path (heavy documents)
# ---------------------------------------------------------------------------

def explode_pages(batch: pa.Table) -> pa.Table:
    """Doc rows → page rows (doc_id, page_pos, payload)."""
    rows, is_text, texts = _span_texts(batch)
    rows = rows[is_text]
    # page_pos: rank of each payload among its row's payloads
    page_pos = np.arange(len(rows)) - np.searchsorted(rows, rows)
    return pa.Table.from_arrays(
        [
            batch.column("doc_id").take(rows).cast(pa.string()),
            pa.array(page_pos, pa.int32()),
            texts.filter(is_text).cast(pa.string()),
        ],
        schema=schemas.PAGE_ROW_SCHEMA,
    )


class PageExtractor:
    """Decode + cluster one page per row, the batch's pages in one kernel
    pass (``process_batch``, each page its own document); emits each page's
    pickled state for document reassembly (links are document-global so
    they run post-shuffle). A failing page's state is its error marker."""

    def __init__(self, cfg: ExtractConfig = None):
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        states = []
        for page in process_batch([[p] for p in batch.column("payload").to_pylist()], self.cfg):
            if isinstance(page, Exception):
                # per-page error isolation: the marker reaches the doc's
                # reassembly, where the error policy of ``_rows`` applies
                page = [{"__error__": "".join(traceback.format_exception(page, limit=3))}]
            states.append(pickle.dumps(page[0], protocol=pickle.HIGHEST_PROTOCOL))
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                batch.column("page_pos"),
                pa.array(states, pa.binary()),
            ],
            names=["doc_id", "page_pos", "page_state"],
        )


def _group_pages(group: pa.Table, cfg: ExtractConfig) -> List[dict]:
    """One doc's page rows → its finished pages: ordered by ``page_pos``,
    unpickled, then finished doc-wide. A page's error marker raises
    :class:`PageError`."""
    order = np.argsort(group.column("page_pos").to_numpy(zero_copy_only=False), kind="stable")
    states = group.column("page_state").to_pylist()
    pages = [pickle.loads(states[i]) for i in order]
    for pg in pages:
        if "__error__" in pg:
            raise PageError(pg["__error__"])
    return finish_pages(pages, cfg)


def assemble(group: pa.Table, mode: str, cfg: ExtractConfig = None) -> pa.Table:
    """map_groups(doc_id): the ``mode`` rows of one reassembled doc — the
    groupby(doc_id) reassembly of the north rule, under the error policy of
    the doc-parallel :class:`Extractor`."""
    cfg = cfg or ExtractConfig()
    rows = _rows(mode, group.column("doc_id")[0].as_py(), _group_pages, group, cfg)
    return _table(rows, _MODES[mode][1](cfg))


def assemble_document(group: pa.Table, cfg: ExtractConfig = None) -> pa.Table:
    """:func:`assemble` in spans mode."""
    return assemble(group, "spans", cfg)
