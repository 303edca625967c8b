"""The three workloads: one timed call into the program per step, each
step's output checked against its Ray-free reference.

An extraction iteration is one ``extract_corpus_skew_aware(path)`` →
``write_parquet`` over the whole corpus. A daily iteration replays every
crawl day, in order, against a fresh artifact directory; each day is one
``run_increment`` step.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from contextlib import ExitStack
from dataclasses import dataclass

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from raybench import host, inputs
from raybench.layers import Tracer, kernel_pass, pipeline_stats, stage_probe


@dataclass(frozen=True)
class Step:
    """One timed call: its wall, docs in, bytes and files written, outputs
    checked and outputs that matched their reference."""

    wall_s: float
    docs: int
    bytes: int
    files: int
    checked: int
    matched: int


def _flat_sorted(t: pa.Table) -> pa.Table:
    return t.sort_by([("doc_id", "ascending"), ("order", "ascending")])


def _flatten_output(out: pa.Table) -> pa.Table:
    spans = out.column("spans").combine_chunks()
    flat = pc.list_flatten(spans)
    parents = pc.list_parent_indices(spans)
    return pa.table({
        "doc_id": pc.take(out.column("doc_id"), parents),
        "order": flat.field("order"),
        "kind": flat.field("kind"),
        "text": flat.field("text"),
        "media_ref": flat.field("media_ref"),
    })


def check_extraction(out_dir: str, doc_ids: list, golden: pa.Table) -> int:
    """Count documents whose output equals the reference: present once,
    ``error == ""`` and the same (order, kind, text, media_ref) sequence."""
    out = pq.read_table(out_dir, columns=["doc_id", "spans", "error"])
    got_ids = out.column("doc_id").to_pylist()
    errors = out.column("error").to_pylist()
    flat = _flat_sorted(_flatten_output(out))
    if (sorted(got_ids) == sorted(doc_ids) and not any(errors)
            and flat.equals(golden)):
        return len(doc_ids)
    # something differs: find which documents, one by one
    want, have = {d: [] for d in doc_ids}, {}
    for row in golden.to_pylist():
        want[row.pop("doc_id")].append(row)
    for row in flat.to_pylist():
        have.setdefault(row.pop("doc_id"), []).append(row)
    seen = Counter(got_ids)
    bad = {d for d, e in zip(got_ids, errors) if e}
    return sum(1 for d in doc_ids if seen[d] == 1 and d not in bad
               and have.get(d, []) == want[d])


class Extraction:
    """extract_flagship and extract_heavy."""

    def __init__(self, input_dir: str, work_dir: str):
        self.input_dir = input_dir
        self.out_dir = os.path.join(work_dir, "out")
        self.corpus = os.path.join(input_dir, "corpus")
        self.golden = _flat_sorted(pq.read_table(os.path.join(input_dir, "golden.parquet")))
        self.doc_ids = pq.read_table(self._files(self.corpus), columns=["doc_id"]) \
            .column("doc_id").to_pylist()

    @staticmethod
    def _files(corpus: str) -> list:
        return [os.path.join(root, n) for root, _d, names in os.walk(corpus)
                for n in names if n.endswith(".parquet")]

    def _run(self, corpus: str, tracer: Tracer = None):
        from pdftext_ray.pipelines.extract import extract_corpus_skew_aware

        out = host.fresh_dir(self.out_dir)
        since = time.time_ns()
        t0 = time.perf_counter()
        if tracer is None:
            ds = extract_corpus_skew_aware(corpus)
            ds.write_parquet(out)
        else:
            with tracer.span("pipelines.extract.extract_corpus_skew_aware"):
                ds = extract_corpus_skew_aware(corpus)
            with tracer.span("ray.data.Dataset.write_parquet"):
                ds.write_parquet(out)
        wall = time.perf_counter() - t0
        nbytes, files = host.dir_bytes(out, since)
        return ds, wall, nbytes, files

    def warm_up(self) -> None:
        warm = os.path.join(self.input_dir, "warm")
        self._run(warm)
        golden = _flat_sorted(pq.read_table(os.path.join(self.input_dir, "warm_golden.parquet")))
        ids = pq.read_table(self._files(warm), columns=["doc_id"]).column("doc_id").to_pylist()
        if check_extraction(self.out_dir, ids, golden) != len(ids):
            raise RuntimeError("warm-up output differs from its reference")

    def iteration(self, tracer: Tracer = None) -> list:
        ds, wall, nbytes, files = self._run(self.corpus, tracer)
        self.last_ds = ds
        matched = check_extraction(self.out_dir, self.doc_ids, self.golden)
        return [Step(wall, len(self.doc_ids), nbytes, files, len(self.doc_ids), matched)]

    def layer_metrics(self, tracer: Tracer, steps: list, cpus: int) -> dict:
        """pipelines.extract.*, kernel.* and stages.extract.* of the traced
        iteration; the kernel and stage probes run on the cached slice."""
        out = pipeline_stats(self.last_ds.stats(), steps[0].wall_s, cpus)
        table = pq.read_table(os.path.join(self.input_dir, "slice.parquet"))
        docs = [(d, inputs.payloads_of(s)) for d, s in zip(
            table.column("doc_id").to_pylist(), table.column("spans").to_pylist())]
        out.update(kernel_pass(docs, tracer))
        out.update(stage_probe(table, tracer))
        return out


_DAY_CHECKS = ("new_docs", "novel_hashes", "hashes_rows", "sigs_rows", "flagged")
# the calls run_increment makes into pdftext_ray.ops, timed in traced runs
_TRACED_OPS = (("dedup", "incremental_exact_dedup"), ("dedup", "minhash_signatures"),
               ("dedup", "incremental_minhash_dedup"),
               ("cluster", "incremental_connected_components"),
               ("cluster", "apply_incremental_cc"))


def _labels(labels_dir: str) -> list:
    files = [os.path.join(labels_dir, n) for n in sorted(os.listdir(labels_dir))
             if n.endswith(".parquet")]
    if not files:
        return []
    t = pq.read_table(files, columns=["doc_id", "cluster_id"])
    return sorted(zip(t.column("doc_id").to_pylist(), t.column("cluster_id").to_pylist()))


class Daily:
    """daily_increment: every crawl day, in order, from empty artifacts."""

    def __init__(self, input_dir: str, work_dir: str):
        self.input_dir = input_dir
        self.art = os.path.join(work_dir, "artifacts")
        self.days = os.path.join(input_dir, "days")
        with open(os.path.join(self.days, "expected.json")) as f:
            self.expected = json.load(f)

    def _replay(self, days_dir: str, expected: list, tracer: Tracer = None) -> list:
        import ray.data

        from pdftext_ray.pipelines.increment import run_increment

        host.fresh_dir(self.art)
        names = sorted(n for n in os.listdir(days_dir) if n.endswith(".parquet"))
        steps = []
        for name, want in zip(names, expected):
            since = time.time_ns()
            t0 = time.perf_counter()
            day = ray.data.read_parquet(os.path.join(days_dir, name))
            if tracer is None:
                got = run_increment(day, self.art)
            else:
                with tracer.span("pipelines.increment.run_increment"):
                    got = run_increment(day, self.art)
            wall = time.perf_counter() - t0
            nbytes, files = host.dir_bytes(self.art, since)
            matched = sum(got[k] == want[k] for k in _DAY_CHECKS)
            matched += _labels(os.path.join(self.art, "labels")) == \
                [tuple(p) for p in want["labels"]]
            steps.append(Step(wall, got["new_docs"], nbytes, files,
                              len(_DAY_CHECKS) + 1, matched))
        return steps

    def warm_up(self) -> None:
        warm = os.path.join(self.input_dir, "warm")
        with open(os.path.join(warm, "expected.json")) as f:
            expected = json.load(f)
        steps = self._replay(warm, expected)
        if any(s.matched != s.checked for s in steps):
            raise RuntimeError("warm-up output differs from its reference")

    def iteration(self, tracer: Tracer = None) -> list:
        if tracer is None:
            return self._replay(self.days, self.expected)
        with ExitStack() as stack:
            for module, fn in _TRACED_OPS:
                stack.enter_context(tracer.patched(
                    importlib.import_module(f"pdftext_ray.ops.{module}"), fn, f"ops.{module}.{fn}"))
            return self._replay(self.days, self.expected, tracer)

    def layer_metrics(self, tracer: Tracer, steps: list, cpus: int) -> dict:
        days = tracer.durations("pipelines.increment.run_increment")
        out = {f"ops.{module}.{fn}.s": tracer.seconds(f"ops.{module}.{fn}")
               for module, fn in _TRACED_OPS}
        out["pipelines.increment.day_s.first"] = days[0]
        out["pipelines.increment.day_s.last"] = days[-1]
        return out
