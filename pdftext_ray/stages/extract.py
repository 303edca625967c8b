"""Ray Data extraction stages — actor-pool map_batches UDFs over Arrow.

The decode+cluster kernel holds warm state (font caches, unicode LUTs are
process-level; the config object and Arrow schemas are per-actor), so the
stages are callable CLASSES run as actor pools:
``ds.map_batches(DocumentExtractor(cfg_dict), concurrency=N, batch_size=B,
batch_format="pyarrow")`` — setup once per actor in ``__init__``, work per
batch in ``__call__`` (SURVEY.md §2.3 ST1; the reference holds a pdfium doc
per ProcessPoolExecutor worker, pdftext/extraction.py:32-41).

Two physical plans:

* **doc-parallel** (default): one row = one document; embarrassingly parallel,
  zero shuffles. Right at 10^12-doc scale because the unit of skew is a doc.
* **page-exploded** (heavy tail): pathological documents (hundreds of pages)
  explode to one row per page, ``PageExtractor`` decodes each page row, and
  ``groupby(doc_id).map_groups`` reassembles the document (the only shuffle,
  keyed by doc_id; SURVEY.md §4 "skew"). Pages do NOT decode in parallel
  today: Ray fuses explode → PageExtractor into tasks that bundle at least
  a page batch of input DOC rows, so a doc's pages never leave the task
  that exploded them (see ``pipelines.extract._exploded``). Page state
  crosses the shuffle pickled, with each page's char arrays written once
  (``kernel.decode.LazyChars``).
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
    extract_document,
    plain_text,
    process_document,
    shape_dictionary,
    span_sequence,
    table_output,
)
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


class DocumentExtractor:
    """Flagship stage: input doc rows → span-sequence rows (no shuffle).

    Per-doc try/except emits an ``error`` column so one corrupt document can't
    fail a whole block repeatedly (SURVEY.md §4 stragglers/retries).
    """

    def __init__(self, cfg: ExtractConfig = None):
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        out_spans, n_pages, n_chars, errors = [], [], [], []
        for payloads in _batch_payloads(batch):
            try:
                res = extract_document(payloads, self.cfg)
                out_spans.append(res["spans"])
                n_pages.append(res["n_pages"])
                n_chars.append(res["n_chars"])
                errors.append("")
            except Exception:
                out_spans.append([])
                n_pages.append(0)
                n_chars.append(0)
                errors.append(traceback.format_exc(limit=3))
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.string()),
                pa.array(out_spans, pa.list_(schemas.OUTPUT_SPAN)),
                pa.array(n_pages, pa.int32()),
                pa.array(n_chars, pa.int64()),
                pa.array(errors, pa.string()),
            ],
            schema=schemas.SPAN_SEQ_SCHEMA,
        )


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


class PlainTextExtractor:
    """M10 parity: one plain-text string per document."""

    def __init__(self, cfg: ExtractConfig = None):
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        texts = []
        for payloads in _batch_payloads(batch):
            pages = process_document(payloads, self.cfg)
            texts.append(plain_text(pages, sort=self.cfg.sort, hyphens=self.cfg.hyphens))
        return pa.Table.from_arrays(
            [pa.array(doc_ids, pa.string()), pa.array(texts, pa.string())],
            schema=schemas.PLAIN_TEXT_SCHEMA,
        )


class PaginatedPlainTextExtractor:
    """Reference ``paginated_plain_text_output`` parity
    (pdftext/extraction.py:77-81): one row per (doc, page) with the page's
    merged text, stripped."""

    def __init__(self, cfg: ExtractConfig = None):
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from pdftext_ray.kernel.document import merge_text

        doc_ids = batch.column("doc_id").to_pylist()
        o_doc, o_page, o_text = [], [], []
        for doc_id, payloads in zip(doc_ids, _batch_payloads(batch)):
            pages = process_document(payloads, self.cfg)
            for pg in pages:
                o_doc.append(doc_id)
                o_page.append(pg["page"])
                o_text.append(merge_text(pg, sort=self.cfg.sort, hyphens=self.cfg.hyphens).strip())
        return pa.Table.from_arrays(
            [pa.array(o_doc, pa.string()), pa.array(o_page, pa.int32()), pa.array(o_text, pa.string())],
            names=["doc_id", "page", "text"],
        )


class DictionaryExtractor:
    """M9 parity: full nested dictionary output as Arrow list<struct> pages."""

    def __init__(self, cfg: ExtractConfig = None):
        self.cfg = cfg or ExtractConfig()
        self.schema = schemas.dictionary_schema(self.cfg.keep_chars)

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        pages_out = []
        for payloads in _batch_payloads(batch):
            pages = process_document(payloads, self.cfg)
            pages_out.append(shape_dictionary(pages, self.cfg))
        return pa.Table.from_arrays(
            [
                pa.array(doc_ids, pa.string()),
                pa.array(pages_out, self.schema.field("pages").type),
            ],
            schema=self.schema,
        )


class TableCellExtractor:
    """T1 stage: one row per (doc, page, table) with clustered cell text."""

    def __init__(self, cfg: ExtractConfig = None):
        cfg = cfg or ExtractConfig()
        # table extraction needs chars; links don't matter for cell text
        self.cfg = cfg
        if not cfg.keep_chars:
            self.cfg = ExtractConfig(**{**cfg.__dict__, "keep_chars": True})

    def __call__(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_pylist()
        o_doc, o_page, o_tbl, o_cells = [], [], [], []
        for doc_id, payloads in zip(doc_ids, _batch_payloads(batch)):
            pages = process_document(payloads, self.cfg)
            per_page = table_output(pages)
            for page, tables in zip(pages, per_page):
                for t_idx, cells in enumerate(tables):
                    o_doc.append(doc_id)
                    o_page.append(page["page"])
                    o_tbl.append(t_idx)
                    o_cells.append(cells)
        return pa.Table.from_arrays(
            [
                pa.array(o_doc, pa.string()),
                pa.array(o_page, pa.int32()),
                pa.array(o_tbl, pa.int32()),
                pa.array(o_cells, pa.list_(schemas.TABLE_CELL)),
            ],
            schema=schemas.TABLE_SCHEMA,
        )


class TableCellExtractorWithInputs:
    """T1 with EXTERNAL table inputs (reference ``table_output(pdf_path,
    table_inputs)``, pdftext/extraction.py:134-155, J5): the detector's table
    regions come as a separate small table keyed (doc_id, page) that is
    broadcast via ``ray.put`` once and looked up per page inside the actor —
    a keyed broadcast join instead of the reference's positional zip
    (``assert len(pages) == len(table_inputs)``, extraction.py:147)."""

    def __init__(self, inputs_ref, cfg: ExtractConfig = None):
        import ray as _ray

        cfg = cfg or ExtractConfig()
        self.cfg = cfg if cfg.keep_chars else ExtractConfig(**{**cfg.__dict__, "keep_chars": True})
        # {(doc_id, page): (tables, img_size)} — built once per actor
        inputs = _ray.get(inputs_ref)
        self.lookup = {
            (d, p): (t, s)
            for d, p, t, s in zip(
                inputs.column("doc_id").to_pylist(),
                inputs.column("page").to_pylist(),
                inputs.column("tables").to_pylist(),
                inputs.column("img_size").to_pylist(),
            )
        }

    def __call__(self, batch: pa.Table) -> pa.Table:
        from pdftext_ray.kernel.tables import table_cell_text

        doc_ids = batch.column("doc_id").to_pylist()
        o_doc, o_page, o_tbl, o_cells = [], [], [], []
        for doc_id, payloads in zip(doc_ids, _batch_payloads(batch)):
            pages = process_document(payloads, self.cfg)
            for page in pages:
                hit = self.lookup.get((doc_id, page["page"]))
                if not hit:
                    continue
                tables, img_size = hit
                for t_idx, cells in enumerate(table_cell_text(tables, page, img_size)):
                    o_doc.append(doc_id)
                    o_page.append(page["page"])
                    o_tbl.append(t_idx)
                    o_cells.append(cells)
        return pa.Table.from_arrays(
            [
                pa.array(o_doc, pa.string()),
                pa.array(o_page, pa.int32()),
                pa.array(o_tbl, pa.int32()),
                pa.array(o_cells, pa.list_(schemas.TABLE_CELL)),
            ],
            schema=schemas.TABLE_SCHEMA,
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
    """Decode + cluster ONE page per row; emits pickled page state for
    document reassembly (links are document-global so they run post-shuffle)."""

    def __init__(self, cfg: ExtractConfig = None):
        self.cfg = cfg or ExtractConfig()

    def __call__(self, batch: pa.Table) -> pa.Table:
        from pdftext_ray.kernel.decode import decode_page_dedup
        from pdftext_ray.kernel.document import process_page

        payloads = batch.column("payload").to_pylist()
        states = []
        for p in payloads:
            try:
                page = process_page(
                    decode_page_dedup(p, self.cfg.quote_loosebox, self.cfg.flatten_pdf),
                    self.cfg, pre_deduped=True,
                )
                states.append(pickle.dumps(page, protocol=pickle.HIGHEST_PROTOCOL))
            except Exception:
                # per-page error isolation, mirroring DocumentExtractor: the
                # marker surfaces as the doc's error column at reassembly
                states.append(pickle.dumps({"__error__": traceback.format_exc(limit=3)},
                                           protocol=pickle.HIGHEST_PROTOCOL))
        return pa.Table.from_arrays(
            [
                batch.column("doc_id"),
                batch.column("page_pos"),
                pa.array(states, pa.binary()),
            ],
            names=["doc_id", "page_pos", "page_state"],
        )


def _reassemble(group: pa.Table, cfg: ExtractConfig):
    """One doc's page rows → (doc_id, pages, error): pages ordered by
    ``page_pos`` and unpickled, then links resolved doc-wide (link
    splitting changes span text, so it cannot run per page). ``error`` is
    the first page's error marker, or None; pages are left unresolved then."""
    from pdftext_ray.kernel import links as klinks

    order = np.argsort(group.column("page_pos").to_numpy(zero_copy_only=False), kind="stable")
    states = group.column("page_state").to_pylist()
    pages = [pickle.loads(states[i]) for i in order]
    doc_id = group.column("doc_id")[0].as_py()
    errors = [p["__error__"] for p in pages if "__error__" in p]
    if errors:
        return doc_id, pages, errors[0]
    if not cfg.disable_links:
        klinks.add_links_and_refs(pages, [pg["links"] for pg in pages])
    else:
        for pg in pages:
            pg["refs"] = []
    return doc_id, pages, None


def assemble_document(group: pa.Table, cfg: ExtractConfig = None) -> pa.Table:
    """map_groups(doc_id): the span sequence of one reassembled doc — the
    groupby(doc_id) reassembly of the north rule. A page error becomes the
    doc's one error row, as in DocumentExtractor."""
    doc_id, pages, error = _reassemble(group, cfg or ExtractConfig())
    if error is not None:
        seq, n_pages, n_chars = [], 0, 0
    else:
        seq, n_pages = span_sequence(pages), len(pages)
        n_chars = sum(len(s["chars"]) for pg in pages for b in pg["blocks"] for l in b["lines"] for s in l["spans"])
    return pa.Table.from_arrays(
        [
            pa.array([doc_id], pa.string()),
            pa.array([seq], pa.list_(schemas.OUTPUT_SPAN)),
            pa.array([n_pages], pa.int32()),
            pa.array([n_chars], pa.int64()),
            pa.array([error or ""], pa.string()),
        ],
        schema=schemas.SPAN_SEQ_SCHEMA,
    )


def assemble_plain_text(group: pa.Table, cfg: ExtractConfig = None) -> pa.Table:
    """map_groups(doc_id): the merged plain text of one reassembled doc. A
    page error raises, as the fused PlainTextExtractor does."""
    cfg = cfg or ExtractConfig()
    doc_id, pages, error = _reassemble(group, cfg)
    if error is not None:
        raise RuntimeError(error)
    return pa.Table.from_arrays(
        [
            pa.array([doc_id], pa.string()),
            pa.array([plain_text(pages, sort=cfg.sort, hyphens=cfg.hyphens)], pa.string()),
        ],
        schema=schemas.PLAIN_TEXT_SCHEMA,
    )
