"""The north-rule invariant: Ray pipeline span sequences == oracle, exactly,
for every adversarial case, on both physical plans (doc-parallel and
page-exploded), and independent of parallelism/block order."""

import glob
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
import ray

from pdftext_ray.corpus import NUM_CASES, doc_case, generate_document
from pdftext_ray.kernel.document import extract_document
from pdftext_ray.pipelines import checkpoint, corpus_io, extract as P
from pdftext_ray.stages import extract as X

N_DOCS = 2 * NUM_CASES  # every adversarial case at least twice


@pytest.fixture(scope="module")
def corpus_ds():
    table = corpus_io.generate_corpus_table(N_DOCS)
    return ray.data.from_arrow(table)


@pytest.fixture(scope="module")
def expected():
    return corpus_io.expected_flat_table(N_DOCS)


def _collect(ds) -> pa.Table:
    return pa.concat_tables(list(ds.iter_batches(batch_format="pyarrow")))


def _sorted_flat(t: pa.Table) -> pa.Table:
    return t.sort_by([("doc_id", "ascending"), ("order", "ascending")])


def _assert_equal(actual: pa.Table, expected: pa.Table):
    actual = _sorted_flat(actual.select(["doc_id", "order", "kind", "text", "media_ref"]))
    expected = _sorted_flat(expected)
    assert actual.num_rows == expected.num_rows
    for col in ["doc_id", "order", "kind", "text", "media_ref"]:
        eq = pc.all(pc.equal(actual.column(col), expected.column(col))).as_py()
        if not eq:
            neq = pc.invert(pc.equal(actual.column(col), expected.column(col)))
            idx = pc.index(neq, True).as_py()
            raise AssertionError(
                f"column {col} mismatch at row {idx}: "
                f"{actual.slice(idx, 1).to_pydict()} vs {expected.slice(idx, 1).to_pydict()}"
            )


def test_doc_parallel_matches_oracle(corpus_ds, expected):
    out = P.flat_spans(P.extract(corpus_ds, batch_size=7))
    _assert_equal(_collect(out), expected)


def test_page_exploded_matches_oracle(corpus_ds, expected):
    out = P.flat_spans(P.extract_spans_exploded(corpus_ds, page_batch_size=5))
    _assert_equal(_collect(out), expected)


def test_skew_aware_plan_matches_oracle(corpus_ds, expected):
    # low threshold so BOTH branches run on this corpus
    out = P.flat_spans(P.extract_spans_skew_aware(corpus_ds, explode_threshold=12_000))
    _assert_equal(_collect(out), expected)


def test_flatten_pdf_extracts_form_fields(corpus_ds, expected):
    """flatten_pdf=True merges form-field char streams into page content
    (FPDFPage_Flatten analog — reference pdf/utils.py:14-17); the default
    config must NOT see them. Both configs match their own oracle, and the
    two outputs provably differ on the form_fields corpus case (VERDICT r2
    item 5)."""
    from pdftext_ray.kernel.document import ExtractConfig

    flat_cfg = ExtractConfig(flatten_pdf=True)
    out_on = _collect(P.flat_spans(P.extract(corpus_ds, cfg=flat_cfg, batch_size=7)))
    exp_on = corpus_io.expected_flat_table(N_DOCS, cfg=flat_cfg)
    _assert_equal(out_on, exp_on)

    texts_off = set(expected.column("text").to_pylist())
    texts_on = set(exp_on.column("text").to_pylist())
    assert any("field entry" in t for t in texts_on - texts_off)
    assert exp_on.num_rows > expected.num_rows


def test_no_errors_and_metrics_present(corpus_ds):
    out = P.extract(corpus_ds).to_pandas()
    assert (out["error"] == "").all()
    assert (out["n_pages"] > 0).sum() >= N_DOCS - 4  # empty docs allowed
    assert out["n_chars"].sum() > 0


def test_media_interleaved_in_reading_order(expected):
    t = expected.to_pandas()
    media = t[t["kind"] == "media"]
    assert len(media) > 0, "corpus must contain media spans"
    assert (media["media_ref"].str.startswith("media://")).all()
    assert (media["text"] == "").all()
    # media spans sit strictly inside the sequence for media_heavy docs
    heavy_ids = [d for d in t["doc_id"].unique() if doc_case(int(d.split("-")[1])) == "media_heavy"]
    for d in heavy_ids:
        seq = t[t["doc_id"] == d].sort_values("order")
        kinds = list(seq["kind"])
        assert "media" in kinds
        first_media = kinds.index("media")
        assert first_media > 0 and "text" in kinds[first_media:]


def test_deterministic_across_runs(corpus_ds):
    a = P.flat_spans(P.extract(corpus_ds, batch_size=3)).to_pandas()
    b = P.flat_spans(P.extract(corpus_ds, batch_size=17)).to_pandas()
    a = a.sort_values(["doc_id", "order"]).reset_index(drop=True)
    b = b.sort_values(["doc_id", "order"]).reset_index(drop=True)
    assert a.equals(b)


def test_equality_holds_at_unseen_seed():
    """The invariant is seed-independent: fresh layouts, same exactness."""
    table = corpus_io.generate_corpus_table(60, seed=7)
    ds = ray.data.from_arrow(table.select(["doc_id", "spans"]))
    got = _collect(P.flat_spans(P.extract(ds, batch_size=13)))
    _assert_equal(got, corpus_io.expected_flat_table(60, seed=7))


def test_plain_text_skew_plan_matches_fused(heavy_corpora):
    """The page-exploded plain-text branch must be bit-identical to the
    fused doc-parallel plan (link resolution runs doc-wide in both), on
    every layout: the heavy docs take the exploded branch in each."""
    for path, rows in heavy_corpora.values():
        fused = {r["doc_id"]: r["text"] for r in P.extract(P.read_documents(path), "plain").take_all()}
        skew = {r["doc_id"]: r["text"] for r in P.extract_plain_text_corpus_skew_aware(path).take_all()}
        assert fused == skew and set(fused) == {r["doc_id"] for r in rows}


# ---------------------------------------------------------------------------
# Corpora with heavy documents (past SIZE_BUCKET_THRESHOLD)
# ---------------------------------------------------------------------------

def _heavy_doc(doc_id: str, start: int, extra_pages=()) -> dict:
    """Pages of consecutive generated docs from ``start`` on, concatenated
    until the doc is past the size threshold (no generated doc is), then
    ``extra_pages`` appended."""
    spans, n_bytes, i = [], 0, start
    while n_bytes <= corpus_io.SIZE_BUCKET_THRESHOLD:
        for s in generate_document(i, 42, "mixed")["spans"]:
            spans.append(dict(s, offset=len(spans)))
            if s["kind"] == "text":
                n_bytes += len(s["text"].encode("utf-8"))
        i += 1
    for payload in extra_pages:
        spans.append({"kind": "text", "text": payload, "media_ref": "", "offset": len(spans)})
    return {"doc_id": doc_id, "spans": spans}


def _write_corpus(path: str, rows, bucketed: bool) -> None:
    """The ingest table, as hive ``size_bucket=small|large`` dirs or as flat
    files, 8 rows per file (several files, so checkpoint chunks vary)."""
    table = corpus_io._rows_to_input_table(rows)
    heavy = pc.greater(table.column("n_bytes"), corpus_io.SIZE_BUCKET_THRESHOLD)
    parts = (
        {"size_bucket=small": table.filter(pc.invert(heavy)), "size_bucket=large": table.filter(heavy)}
        if bucketed else {"": table}
    )
    for sub, part in parts.items():
        if not len(part):
            continue
        out = os.path.join(path, sub)
        os.makedirs(out, exist_ok=True)
        for k in range(0, len(part), 8):
            pq.write_table(part.slice(k, 8), os.path.join(out, f"part-{k // 8}.parquet"))


HEAVY_LAYOUTS = ("bucketed", "all_heavy", "unbucketed")


@pytest.fixture(scope="module")
def heavy_corpora(tmp_path_factory):
    """{layout: (path, rows)}: 20 generated docs plus 2 heavy ones,
    hive-bucketed; the heavy ones alone (only ``size_bucket=large/``); and
    all 22 un-bucketed."""
    small = [generate_document(i, 42, "mixed") for i in range(20)]
    heavy = [_heavy_doc(f"heavy-{j}", 200 + 40 * j) for j in range(2)]
    root = tmp_path_factory.mktemp("heavy_corpora")
    corpora = {}
    for layout, rows, bucketed in (
        ("bucketed", small + heavy, True),
        ("all_heavy", heavy, True),
        ("unbucketed", small + heavy, False),
    ):
        path = str(root / layout)
        _write_corpus(path, rows, bucketed)
        corpora[layout] = (path, rows)
    assert sorted(os.listdir(corpora["bucketed"][0])) == ["size_bucket=large", "size_bucket=small"]
    assert os.listdir(corpora["all_heavy"][0]) == ["size_bucket=large"]
    return corpora


def _assert_spans_match_reference(got_rows, rows):
    """Span-sequence rows == the Ray-free ``extract_document`` per doc."""
    got = {r["doc_id"]: r for r in got_rows}
    assert sorted(got) == sorted(r["doc_id"] for r in rows)
    payloads = X._batch_payloads(corpus_io._rows_to_input_table(rows))
    for r, doc_payloads in zip(rows, payloads):
        ref, out = extract_document(doc_payloads), got[r["doc_id"]]
        assert out["error"] == ""
        assert list(out["spans"]) == ref["spans"], r["doc_id"]
        assert (out["n_pages"], out["n_chars"]) == (ref["n_pages"], ref["n_chars"])


@pytest.mark.parametrize("layout", HEAVY_LAYOUTS)
def test_corpus_skew_plan_matches_reference(heavy_corpora, layout):
    path, rows = heavy_corpora[layout]
    _assert_spans_match_reference(P.extract_corpus_skew_aware(path).take_all(), rows)


@pytest.mark.parametrize("layout", HEAVY_LAYOUTS)
def test_plain_text_corpus_plan_matches_fused_reference(heavy_corpora, layout):
    path, rows = heavy_corpora[layout]
    table = corpus_io._rows_to_input_table(rows)
    ref = X.Extractor("plain")(table.select(["doc_id", "spans"]))
    expected = dict(zip(ref.column("doc_id").to_pylist(), ref.column("text").to_pylist()))
    got = {r["doc_id"]: r["text"] for r in P.extract_plain_text_corpus_skew_aware(path).take_all()}
    assert got == expected


@pytest.mark.parametrize("layout", HEAVY_LAYOUTS)
def test_checkpointed_matches_reference(heavy_corpora, layout, tmp_path):
    path, rows = heavy_corpora[layout]
    out = str(tmp_path / "out")
    stats = checkpoint.run_checkpointed(path, out, num_partitions=3)
    assert stats["rows"] == len(rows) and stats["skipped"] == 0
    files = sorted(glob.glob(os.path.join(out, "part-*", "**", "*.parquet"), recursive=True))
    got = pa.concat_tables([pq.read_table(f) for f in files]).to_pylist()
    _assert_spans_match_reference(got, rows)


def test_cli_spans_routes_ingested_corpus_by_files(heavy_corpora, tmp_path, monkeypatch):
    """`extract --mode spans` over an ingested corpus goes through the file
    router (no in-flight sizing), and gives the reference rows; --limit
    keeps the Dataset route."""
    import argparse

    from pdftext_ray import cli

    path, rows = heavy_corpora["bucketed"]
    routed = []
    real = P.extract_corpus_skew_aware
    monkeypatch.setattr(P, "extract_corpus_skew_aware", lambda *a: routed.append(a) or real(*a))

    def run(out, limit=None):
        args = argparse.Namespace(
            input=path, output=str(tmp_path / out), mode="spans", pages=None,
            sort=True, keep_hyphens=False, disable_links=False, keep_chars=False,
            flatten_pdf=False, workers=None, limit=limit, stdout=False,
            checkpoint=False, partitions=8,
        )
        assert cli.cmd_extract(args) == 0
        files = glob.glob(os.path.join(str(tmp_path / out), "**", "*.parquet"), recursive=True)
        return pa.concat_tables([pq.read_table(f) for f in files]).to_pylist()

    _assert_spans_match_reference(run("routed"), rows)
    assert [a[0] for a in routed] == [path]
    _assert_spans_match_reference(run("limited", limit=len(rows)), rows)
    assert len(routed) == 1


def test_corrupt_page_in_heavy_doc(tmp_path):
    """One corrupt page in a heavy doc: the spans plan isolates it as that
    doc's one error row; the plain-text plan raises, as the fused plain
    Extractor does."""
    bad = _heavy_doc("heavy-bad", 300, extra_pages=["P|0|zz|nope"])
    rows = [generate_document(i, 42, "mixed") for i in range(6)] + [bad]
    path = str(tmp_path / "corpus")
    _write_corpus(path, rows, bucketed=True)

    out = {r["doc_id"]: r for r in P.extract_corpus_skew_aware(path).take_all()}
    assert len(out) == len(rows)
    assert out["heavy-bad"]["error"] != "" and len(out["heavy-bad"]["spans"]) == 0
    assert all(r["error"] == "" for d, r in out.items() if d != "heavy-bad")

    bad_table = corpus_io._rows_to_input_table([bad]).select(["doc_id", "spans"])
    with pytest.raises(ValueError, match="could not convert"):
        X.Extractor("plain")(bad_table)
    with pytest.raises(Exception, match="could not convert"):
        P.extract_plain_text_corpus_skew_aware(path).take_all()
