"""Error isolation and nested dictionary-output structure."""

import pyarrow as pa
import pyarrow.compute as pc
import pytest
import ray

from pdftext_ray.kernel.document import ExtractConfig
from pdftext_ray.pipelines import corpus_io, extract as P
from pdftext_ray.stages import extract as X


def test_corrupt_doc_isolated_not_fatal():
    """One malformed payload must fail ONLY its row (error column), not the
    block or the job (SURVEY.md §4 stragglers/retries)."""
    good = corpus_io.generate_corpus_table(4).select(["doc_id", "spans"])
    bad = pa.Table.from_arrays(
        [
            pa.array(["doc-bad"], good.schema.field("doc_id").type),
            pa.array(
                [[{"kind": "text", "text": "P|0|not,a,valid|payload\nCB|zz", "media_ref": "", "offset": 0}]],
                good.schema.field("spans").type,
            ),
        ],
        schema=good.schema,
    )
    ds = ray.data.from_arrow(pa.concat_tables([good, bad]))
    out = P.extract(ds, batch_size=8).to_pandas()
    assert len(out) == 5
    failed = out[out["doc_id"] == "doc-bad"]
    assert len(failed) == 1 and failed.iloc[0]["error"] != ""
    assert (out[out["doc_id"] != "doc-bad"]["error"] == "").all()


def test_dictionary_output_nested_structure_and_keep_chars():
    table = corpus_io.generate_corpus_table(6).select(["doc_id", "spans"])
    ds = ray.data.from_arrow(table)
    out = P.extract(ds, "dict", ExtractConfig(keep_chars=True)).to_pandas()
    assert len(out) == 6
    doc = out[out["doc_id"] == "doc-00000000"].iloc[0]
    page = doc["pages"][0]
    # reference page shape: page/bbox/width/height/rotation/blocks/refs
    assert set(page.keys()) == {"page", "bbox", "width", "height", "rotation", "blocks", "refs"}
    assert page["width"] == 612 and page["height"] == 792
    span = page["blocks"][0]["lines"][0]["spans"][0]
    assert {"bbox", "text", "font", "rotation", "url", "superscript", "subscript",
            "char_start_idx", "char_end_idx", "chars"} <= set(span.keys())
    # keep_chars exposes per-char bbox (reference tests/test_extraction.py:24-27)
    ch = span["chars"][0]
    assert len(ch["bbox"]) == 4 and len(ch["char"]) == 1
    # without keep_chars the chars field is absent
    out2 = P.extract(ds, "dict", ExtractConfig(keep_chars=False)).to_pandas()
    span2 = out2.iloc[0]["pages"][0]["blocks"][0]["lines"][0]["spans"][0]
    assert "chars" not in span2


def test_one_error_policy_in_both_plans(monkeypatch):
    """A doc whose step after the page decode raises becomes that doc's one
    error row in spans mode on both plans, the fused stage and the
    post-shuffle assembly; every other mode raises."""
    from pdftext_ray.kernel import links

    def fail(*args):
        raise RuntimeError("links failed")

    table = corpus_io.generate_corpus_table(3).select(["doc_id", "spans"])
    doc_ids = table.column("doc_id").to_pylist()
    pages = X.PageExtractor()(X.explode_pages(table))
    groups = [pages.filter(pc.equal(pages.column("doc_id"), d)) for d in doc_ids]
    assert all(len(g) for g in groups)
    monkeypatch.setattr(links, "add_links_and_refs", fail)
    fused = X.DocumentExtractor()(table)
    exploded = pa.concat_tables([X.assemble_document(g) for g in groups])
    for out in (fused, exploded):
        assert out.column("doc_id").to_pylist() == doc_ids
        for row in out.to_pylist():
            assert row["spans"] == [] and row["n_pages"] == 0
            assert "links failed" in row["error"]
    with pytest.raises(RuntimeError, match="links failed"):
        X.assemble(groups[0], "plain")


def test_payload_sizes_correct_on_sliced_batches():
    """payload_sizes must use slice-adjusted offsets (zero-copy Arrow slices
    have non-rebased backing buffers)."""
    from pdftext_ray.stages.extract import payload_sizes

    table = corpus_io.generate_corpus_table(12).select(["doc_id", "spans"])
    whole = payload_sizes(table).column("payload_bytes").to_pylist()
    sliced = payload_sizes(table.slice(5, 4)).column("payload_bytes").to_pylist()
    assert sliced == whole[5:9]


def test_corrupt_doc_isolated_in_exploded_path():
    """The page-exploded plan must also surface per-doc errors instead of
    failing the pipeline."""
    good = corpus_io.generate_corpus_table(4).select(["doc_id", "spans"])
    bad = pa.Table.from_arrays(
        [
            pa.array(["doc-bad"], good.schema.field("doc_id").type),
            pa.array(
                [[{"kind": "text", "text": "P|0|zz|nope", "media_ref": "", "offset": 0}]],
                good.schema.field("spans").type,
            ),
        ],
        schema=good.schema,
    )
    ds = ray.data.from_arrow(pa.concat_tables([good, bad]))
    out = P.extract_spans_exploded(ds, page_batch_size=4).to_pandas()
    assert len(out) == 5
    failed = out[out["doc_id"] == "doc-bad"]
    assert len(failed) == 1 and failed.iloc[0]["error"] != ""
    assert (out[out["doc_id"] != "doc-bad"]["error"] == "").all()


def test_table_cells_on_rotated_page():
    """Rotation 90 swaps page dims before rescale (reference runs table
    extraction on dictionary_output pages, extraction.py:128-130)."""
    from pdftext_ray import geometry as g
    from pdftext_ray.kernel.document import process_document, table_output
    from pdftext_ray.payload import PayloadWriter
    from tests.test_links_tables import FONT, PAGE, _word

    w = PayloadWriter(0, PAGE, 90)
    ty = 100.0
    for r in range(2):
        y = ty + r * 20.0
        x = 60.0
        for c in range(3):
            _word(w, f"c{r}{c}", x, y, size=10.0)
            x += 3 * 6.0 + 30.0
        w.add_char("\n", [x, 792.0 - y, x, 792.0 - (y + 10.0)], FONT)
    # rendered image of the rotated page is landscape: swapped dims
    w.set_img_size([792.0, 612.0])
    w.add_table(g.rotate([50.0, 90.0, 250.0, 150.0], 612.0, 792.0, 90))
    pages = process_document([w.build()], ExtractConfig(disable_links=True))
    cells = table_output(pages)[0][0]
    assert {c["text"] for c in cells} == {"c00", "c01", "c02", "c10", "c11", "c12"}


def test_empty_dataset_through_pipelines():
    """A 0-row input must flow through every pipeline without crashing."""
    empty = corpus_io.generate_corpus_table(0).select(["doc_id", "spans"])
    ds = ray.data.from_arrow(empty)
    for mode in ("spans", "plain", "paginated", "dict", "tables"):
        assert X.Extractor(mode)(empty).num_rows == 0, mode
        assert P.extract(ds, mode).count() == 0, mode
    assert P.flat_spans(P.extract(ds)).count() == 0
