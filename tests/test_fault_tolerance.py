"""Transient-failure containment: a UDF that fails once must cost one task
re-execution, not the run (`ops.transient_retry_args`; the partition-manifest
resume in pipelines/checkpoint.py is the coarser layer above this)."""

import os

import pyarrow as pa
import pytest
import ray

from pdftext_ray.ops import transient_retry_args
from pdftext_ray.pipelines import corpus_io, extract as P

N_DOCS = 48


def _flaky_passthrough(marker_path: str):
    """Stage that raises on its FIRST execution anywhere (cross-process
    marker file), then passes batches through untouched."""

    def fn(batch: pa.Table) -> pa.Table:
        if not os.path.exists(marker_path):
            # atomic create; the winner raises, every later task passes
            try:
                fd = os.open(marker_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                raise RuntimeError("injected transient failure")
            except FileExistsError:
                pass
        return batch

    return fn


def test_transient_udf_failure_is_retried(tmp_path):
    table = corpus_io.generate_corpus_table(N_DOCS)
    marker = str(tmp_path / "failed_once")

    ds = (
        ray.data.from_arrow(table)
        .map_batches(
            _flaky_passthrough(marker),
            batch_format="pyarrow",
            **transient_retry_args(),
        )
    )
    out = P.extract(ds)
    rows = pa.concat_tables(list(out.iter_batches(batch_format="pyarrow")))
    assert os.path.exists(marker), "the injected failure never fired"
    assert rows.num_rows == N_DOCS
    assert sorted(rows.column("doc_id").to_pylist()) == sorted(
        table.column("doc_id").to_pylist()
    )


def test_deterministic_failure_still_fails(tmp_path):
    """Containment, not error swallowing: a failure that persists past the
    retry budget must surface."""

    def always_fail(batch: pa.Table) -> pa.Table:
        raise RuntimeError("deterministic bug")

    ds = ray.data.from_arrow(corpus_io.generate_corpus_table(8)).map_batches(
        always_fail,
        batch_format="pyarrow",
        **transient_retry_args(max_retries=1),
    )
    with pytest.raises(Exception, match="deterministic bug"):
        ds.materialize()
