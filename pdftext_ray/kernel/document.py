"""Per-document extraction: page processing, output shaping, span sequence.

Mirrors the reference pipeline lifecycle (pdftext/extraction.py:93-155,
pdftext/pdf/pages.py:260-301):

    decode (S3) → deduplicate_chars (M1) → get_spans (M2) → get_lines (M3)
    → assign_scripts (M4) → get_blocks (M5) → links (J1-J4)
    → output shaping (M8/M9) / merge_text (M10) / span sequence (north rule).

``process_batch`` is the kernel pass the Ray Data stages run once per Arrow
batch: S3, M1 and the M2 breaks once over every page of the batch, then
M2's span shaping and M3-M5 per page. ``process_document``, the
single-document ORACLE for tests, is the same pass on a batch of one
document. Orchestration (batching, task pools, shuffles) lives in
pdftext_ray/stages, semantics live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List

from pdftext_ray.kernel import cluster, links as klinks
from pdftext_ray.kernel.backend import PayloadBackend
from pdftext_ray.kernel.decode import DecodedPage, decode_pages
from pdftext_ray.kernel.tables import table_cell_text
from pdftext_ray.textops import handle_hyphens, postprocess_text, sort_blocks


@dataclass(frozen=True)
class ExtractConfig:
    """Tunable knobs — the reference's kwargs surface
    (pdftext/extraction.py:93-101, pdftext/pdf/pages.py:260-266)."""

    quote_loosebox: bool = True
    # merge form-field (annotation) char streams into page content before
    # decode — the FPDFPage_Flatten + init_forms analog (reference
    # pdftext/pdf/utils.py:14-17, pdftext/extraction.py:18-24). False leaves
    # form text invisible, exactly like an un-flattened pdfium text page.
    flatten_pdf: bool = False
    superscript_height_threshold: float = 0.7
    line_distance_threshold: float = 0.1
    disable_links: bool = False
    sort: bool = True
    keep_chars: bool = False
    hyphens: bool = False  # plain-text mode: keep hyphens?


DEFAULT_CONFIG = ExtractConfig()


def process_page(decoded: DecodedPage, cfg: ExtractConfig = DEFAULT_CONFIG, spans=None) -> dict:
    """Run the per-page clustering chain (pdftext/pdf/pages.py:270-301) on a
    word-deduped page (M1 runs in the decode). ``spans`` are the page's M2
    spans when a batch pass cut them (:func:`process_batch`); otherwise the
    page is its own batch. A page with no chars has no spans."""
    if decoded.arrays is None:
        spans = []
    elif spans is None:
        spans = cluster.get_spans_from_arrays(
            decoded.arrays,
            superscript_height_threshold=cfg.superscript_height_threshold,
            line_distance_threshold=cfg.line_distance_threshold,
        )
    lines = cluster.get_lines(spans)
    cluster.assign_scripts(
        lines,
        height_threshold=cfg.superscript_height_threshold,
        line_distance_threshold=cfg.line_distance_threshold,
    )
    blocks = cluster.get_blocks(lines)
    return {
        "page": decoded.page_idx,
        "bbox": decoded.page_bbox,
        "width": decoded.width,
        "height": decoded.height,
        "rotation": decoded.rotation,
        "blocks": blocks,
        "media": decoded.media,
        "links": decoded.links,
        "tables": decoded.tables,
        "img_size": decoded.img_size,
    }


def finish_pages(pages: List[dict], cfg: ExtractConfig = DEFAULT_CONFIG) -> List[dict]:
    """Resolve links document-wide (link splitting changes span text, so it
    cannot run per page), or give every page ``refs=[]`` when links are off.
    Mutates and returns ``pages``."""
    if cfg.disable_links:
        for pg in pages:
            pg["refs"] = []
    else:
        klinks.add_links_and_refs(pages, [pg["links"] for pg in pages])
    return pages


def process_batch(docs: List[list], cfg: ExtractConfig = DEFAULT_CONFIG, backend=None) -> Iterator:
    """One kernel pass over every page of a batch of documents.

    ``docs`` holds each document's page sources; ``backend`` is a
    kernel.backend.DecoderBackend that parses one into a RawPage (None =
    ``PayloadBackend()``, the synthetic payload). The decode, the word
    dedup and the span breaks run once over all the batch's pages
    (``decode.decode_pages``, ``cluster.span_cuts``); lines, scripts and
    blocks stay per page, because their folds are sequential. Yields, per
    document, its processed pages (not yet finished: :func:`finish_document`)
    or the exception that failed it; a failing document never changes
    another's output.

    Documents are yielded one at a time, so a caller that finishes each
    before taking the next holds one document's page objects at a time.
    Holding a whole batch's (and the batch's RawPages) kept enough objects
    alive through young collections that the garbage collector's
    older-generation passes took about a fifth of the stage's time, in
    process on the flagship's documents."""
    backend = backend or PayloadBackend()
    raws = []
    for sources in docs:
        for src in sources:
            try:
                raws.append(backend.parse(src))
            except Exception as e:
                raws.append(e)
    batch = decode_pages(raws, cfg.quote_loosebox, cfg.flatten_pdf)
    del raws
    cuts = cluster.span_cuts(
        batch.cols,
        batch.starts,
        superscript_height_threshold=cfg.superscript_height_threshold,
        line_distance_threshold=cfg.line_distance_threshold,
    )
    p = 0
    for sources in docs:
        try:
            pages = []
            for k in range(p, p + len(sources)):
                page, batch.pages[k] = batch.pages[k], None  # dies with its doc
                if isinstance(page, Exception):
                    raise page
                spans = None if page.arrays is None else cluster.page_spans(cuts, k, page.arrays)
                pages.append(process_page(page, cfg, spans))
        except Exception as e:
            pages = e
        p += len(sources)
        yield pages


def finish_document(processed, cfg: ExtractConfig = DEFAULT_CONFIG) -> List[dict]:
    """A document's entry of :func:`process_batch`: its pages finished
    (:func:`finish_pages`), or the exception that failed it, raised."""
    if isinstance(processed, Exception):
        raise processed
    return finish_pages(processed, cfg)


def process_document(payloads: List[str], cfg: ExtractConfig = DEFAULT_CONFIG, backend=None) -> List[dict]:
    """One document's finished pages: :func:`process_batch` on a batch of
    one document."""
    return finish_document(next(process_batch([payloads], cfg, backend)), cfg)


def _shape_span(span: dict, keep_chars: bool) -> dict:
    """M8: span output shaping (pdftext/extraction.py:83-90)."""
    out = {
        "bbox": span["bbox"],
        "text": handle_hyphens(postprocess_text(span["text"]), keep_hyphens=True),
        "font": {
            "name": span["font"][0],
            "flags": span["font"][1],
            "size": span["font"][2],
            "weight": span["font"][3],
        },
        "char_start_idx": span["char_start_idx"],
        "char_end_idx": span["char_end_idx"],
        "rotation": span["rotation"],
        "url": span["url"],
        "superscript": span["superscript"],
        "subscript": span["subscript"],
    }
    if keep_chars:
        out["chars"] = [
            {"char": c[0], "bbox": c[1], "rotation": c[2], "char_idx": c[4]}
            for c in span["chars"]
        ]
    return out


def shape_dictionary(pages: List[dict], cfg: ExtractConfig = DEFAULT_CONFIG) -> List[dict]:
    """M9: prune to the JSON output shape, optional reading-order sort,
    rotated page dim swap (pdftext/extraction.py:110-131)."""
    out_pages = []
    for page in pages:
        blocks = [
            {
                "bbox": blk["bbox"],
                "lines": [
                    {
                        "bbox": line["bbox"],
                        "spans": [_shape_span(s, cfg.keep_chars) for s in line["spans"]],
                    }
                    for line in blk["lines"]
                ],
            }
            for blk in page["blocks"]
        ]
        if cfg.sort:
            blocks = sort_blocks(blocks)
        width, height = page["width"], page["height"]
        bbox = page["bbox"]
        if page["rotation"] in (90, 270):
            width, height = height, width
            bbox = [bbox[2], bbox[3], bbox[0], bbox[1]]
        out_pages.append(
            {
                "page": page["page"],
                "bbox": bbox,
                "width": width,
                "height": height,
                "rotation": page["rotation"],
                "blocks": blocks,
                "refs": [
                    {"idx": r["idx"], "page": r["page"], "coord": r["coord"]}
                    for r in page.get("refs", [])
                ],
            }
        )
    return out_pages


def merge_text(page: dict, sort: bool = False, hyphens: bool = False) -> str:
    """M10: flatten one page to plain text (pdftext/postprocessing.py:95-113)."""
    blocks = page["blocks"]
    if sort:
        blocks = sort_blocks(blocks)
    text = ""
    for blk in blocks:
        block_text = ""
        for line in blk["lines"]:
            line_text = "".join(s["text"] for s in line["spans"])
            line_text = postprocess_text(line_text)
            block_text += line_text.rstrip() + "\n"
        text += block_text.rstrip() + "\n\n"
    return handle_hyphens(text, keep_hyphens=hyphens)


def plain_text(pages: List[dict], sort: bool = False, hyphens: bool = False) -> str:
    """Reference ``plain_text_output``: per-page merge_text stripped, joined
    with \\n (pdftext/extraction.py:71-81)."""
    return "\n".join(merge_text(pg, sort=sort, hyphens=hyphens).strip() for pg in pages)


def span_sequence(pages: List[dict]) -> List[dict]:
    """The flagship north-rule output: per-document interleaved span sequence.

    Per page, text blocks and media items (pseudo-blocks with their layout
    bbox) are merged in reading order using the reference's sort_blocks
    quantization (y-bucket tolerance 1.25, then x — postprocessing.py:76-92);
    text blocks flatten to their spans (dictionary-output text semantics,
    pdftext/extraction.py:83-90), each media item emits one
    ``kind='media'`` span. ``order`` is the global running index per doc.
    """
    seq: List[dict] = []
    order = 0
    for page in pages:
        entries = [
            {"bbox": blk["bbox"], "_blk": blk, "_media": None}
            for blk in page["blocks"]
        ]
        entries.extend(
            {"bbox": m[1], "_blk": None, "_media": m[0]} for m in page["media"]
        )
        for entry in sort_blocks(entries):
            if entry["_media"] is not None:
                seq.append({"kind": "media", "text": "", "media_ref": entry["_media"], "order": order})
                order += 1
            else:
                for line in entry["_blk"]["lines"]:
                    for span in line["spans"]:
                        seq.append(
                            {
                                "kind": "text",
                                "text": handle_hyphens(postprocess_text(span["text"]), keep_hyphens=True),
                                "media_ref": "",
                                "order": order,
                            }
                        )
                        order += 1
    return seq


def span_output(pages: List[dict]) -> dict:
    """The flagship row of one finished document: span sequence + metrics."""
    return {
        "spans": span_sequence(pages),
        "n_pages": len(pages),
        "n_chars": sum(len(s["chars"]) for pg in pages for b in pg["blocks"] for l in b["lines"] for s in l["spans"]),
    }


def extract_document(payloads: List[str], cfg: ExtractConfig = DEFAULT_CONFIG, backend=None) -> dict:
    """One-call flagship: payloads → span sequence + per-doc metrics."""
    return span_output(process_document(payloads, cfg, backend=backend))


def table_output(pages: List[dict]) -> List[List[List[dict]]]:
    """Reference ``table_output`` (pdftext/extraction.py:134-155): per page,
    extract cell text for each annotated table region (J5 zip is implicit —
    table bboxes ride in the page payload)."""
    out = []
    for page in pages:
        if page["tables"] and page["img_size"]:
            out.append(table_cell_text(page["tables"], page, page["img_size"]))
        else:
            out.append([])
    return out
