"""Per-layer measurement from outside the program.

Three sources, none of which edits ``pdftext_ray``:

- :class:`Tracer` records spans (name, start, end, parent) around calls
  into each module's public functions, made from the benchmark's own code;
- :func:`pipeline_stats` reads ``Dataset.stats()`` of a dataset the
  benchmark holds;
- :func:`kernel_pass` and :func:`stage_probe` call the kernel and the stage
  UDFs in this process on a fixed document slice.
"""

from __future__ import annotations

import json
import re
import statistics
import time
from contextlib import contextmanager

import pyarrow as pa


class Tracer:
    """Spans kept in memory and written out once, at the end."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter() - self._t0, "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter() - self._t0

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> list:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    @contextmanager
    def patched(self, module, attr: str, name: str):
        """Replace ``module.attr`` by a traced call while the block runs.

        The wrapper materializes the returned Dataset inside the span, so
        the span holds the work, not only the building of a lazy plan."""
        fn = getattr(module, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs).materialize()

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, fn)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(self.spans, f)


# ---------------------------------------------------------------------------
# Ray operators, from Dataset.stats()
# ---------------------------------------------------------------------------

_UNIT_S = {"ns": 1e-9, "us": 1e-6, "ms": 1e-3, "s": 1.0}
_HEADER = re.compile(r"^\t?(Operator|Suboperator) \d+ (.*?): ?(.*)$")
_TOTAL = re.compile(r"([\d.]+)(ns|us|ms|s) total")
_ELAPSED = re.compile(r"in ([\d.]+)(ns|us|ms|s)$")
_TASKS = re.compile(r"^(\d+) tasks executed")
_SHUFFLE_OPS = ("Sort", "Aggregate", "Repartition", "HashShuffle", "Shuffle", "GroupBy")


def parse_stats(text: str) -> list:
    """Operators and sub-operators of a ``Dataset.stats()`` report:
    name, kind, elapsed_s, tasks, wall_s / cpu_s / udf_s (summed over
    tasks) and out_bytes."""
    ops = []
    for line in text.splitlines():
        m = _HEADER.match(line)
        if m:
            kind, name, rest = m.groups()
            el = _ELAPSED.search(rest)
            tasks = _TASKS.match(rest)
            ops.append({"kind": kind, "name": name,
                        "elapsed_s": float(el.group(1)) * _UNIT_S[el.group(2)] if el else 0.0,
                        "tasks": int(tasks.group(1)) if tasks else 0,
                        "wall_s": 0.0, "cpu_s": 0.0, "udf_s": 0.0, "out_bytes": 0})
            continue
        if not ops:
            continue
        body = line.strip()
        for label, key in (("* Remote wall time:", "wall_s"), ("* Remote cpu time:", "cpu_s"),
                           ("* UDF time:", "udf_s")):
            if body.startswith(label):
                t = _TOTAL.search(body)
                ops[-1][key] = float(t.group(1)) * _UNIT_S[t.group(2)]
        if body.startswith("* Output size bytes per block:"):
            ops[-1]["out_bytes"] = int(float(body.rsplit(",", 1)[1].split()[0]))
    return ops


def _category(op: dict, parent: str) -> str:
    first = op["name"].split("->")[0]
    if op["kind"] == "Suboperator":
        return parent
    if first.startswith("Read"):
        return "read"
    if first.startswith(_SHUFFLE_OPS):
        return "shuffle"
    if first.startswith("Union"):
        return "union"
    if op["name"] == "Write":
        return "write"
    return "extract"


def pipeline_stats(stats_text: str, wall_s: float, cpus: int) -> dict:
    """pipelines.extract.* metrics of one executed extraction.

    ``wall_s`` of a category is the summed elapsed time of its operators
    (operators overlap, so categories need not add up to the iteration).
    Ray fuses the extract map with the write; the write's share of such an
    operator is its task time outside the UDF. ``ideal_wall_s`` is the
    summed task cpu of every operator over ``cpus``; ``gap_s`` is what the
    iteration took beyond it.
    """
    sums = {c: {"elapsed_s": 0.0, "cpu_s": 0.0, "out_bytes": 0}
            for c in ("read", "extract", "shuffle", "write", "union")}
    tasks = cpu = write_s = moved = 0.0
    parent = "extract"
    for op in parse_stats(stats_text):
        cat = _category(op, parent)
        if op["kind"] == "Operator":
            parent = cat
        for key in ("elapsed_s", "cpu_s", "out_bytes"):
            sums[cat][key] += op[key]
        tasks += op["tasks"]
        cpu += op["cpu_s"]
        if op["name"].endswith("Write"):
            write_s += op["wall_s"] - op["udf_s"]
        # map-side sub-operators hold what the shuffle moved; the reduce
        # side's output repeats the same bytes
        if op["kind"] == "Suboperator" and "Map" in op["name"]:
            moved += op["out_bytes"]
    ideal = cpu / cpus
    p = "pipelines.extract."
    return {
        p + "read.wall_s": sums["read"]["elapsed_s"],
        p + "extract.wall_s": sums["extract"]["elapsed_s"],
        p + "extract.cpu_s": sums["extract"]["cpu_s"],
        p + "shuffle.wall_s": sums["shuffle"]["elapsed_s"],
        p + "shuffle.mb": moved / 1e6,
        p + "write.wall_s": write_s,
        p + "tasks": tasks,
        p + "ideal_wall_s": ideal,
        p + "gap_s": wall_s - ideal,
    }


# ---------------------------------------------------------------------------
# kernel phases and stage UDFs, single process
# ---------------------------------------------------------------------------

_PHASES = ("decode", "spans", "lines", "blocks", "links", "span_sequence")


def _phased_document(payloads, cfg, acc: dict) -> dict:
    """``extract_document`` with a timer around each phase, calling the
    kernel functions in ``process_document``'s order. The blocks phase
    includes building the page record and the span_sequence phase the
    output record, so the phases cover the whole call."""
    from pdftext_ray.kernel import cluster, links
    from pdftext_ray.kernel.decode import decode_page_dedup
    from pdftext_ray.kernel.document import span_sequence

    clock = time.perf_counter
    pages = []
    for payload in payloads:
        t0 = clock()
        dec = decode_page_dedup(payload, cfg.quote_loosebox, cfg.flatten_pdf)
        t1 = clock()
        if dec.arrays is not None:
            spans = cluster.get_spans_from_arrays(
                dec.arrays, superscript_height_threshold=cfg.superscript_height_threshold,
                line_distance_threshold=cfg.line_distance_threshold)
        else:
            spans = cluster.get_spans(
                dec.chars, superscript_height_threshold=cfg.superscript_height_threshold,
                line_distance_threshold=cfg.line_distance_threshold)
        t2 = clock()
        lines = cluster.get_lines(spans)
        cluster.assign_scripts(lines, height_threshold=cfg.superscript_height_threshold,
                               line_distance_threshold=cfg.line_distance_threshold)
        t3 = clock()
        blocks = cluster.get_blocks(lines)
        pages.append({"page": dec.page_idx, "bbox": dec.page_bbox, "width": dec.width,
                      "height": dec.height, "rotation": dec.rotation, "blocks": blocks,
                      "media": dec.media, "links": dec.links, "tables": dec.tables,
                      "img_size": dec.img_size})
        t4 = clock()
        acc["decode"] += t1 - t0
        acc["spans"] += t2 - t1
        acc["lines"] += t3 - t2
        acc["blocks"] += t4 - t3
    t0 = clock()
    if cfg.disable_links:
        for pg in pages:
            pg["refs"] = []
    else:
        links.add_links_and_refs(pages, [pg["links"] for pg in pages])
    t1 = clock()
    out = {"spans": span_sequence(pages), "n_pages": len(pages),
           "n_chars": sum(len(s["chars"]) for pg in pages for b in pg["blocks"]
                          for ln in b["lines"] for s in ln["spans"])}
    acc["links"] += t1 - t0
    acc["span_sequence"] += clock() - t1
    return out


def kernel_pass(docs: list, tracer: Tracer, reps: int = 5) -> dict:
    """kernel.* metrics over ``docs`` = [(doc_id, payloads)].

    Each document runs through ``extract_document`` and through the phased
    pass back to back, in alternating order, so both see the same host
    speed. Each timer keeps its median over ``reps`` passes of the slice;
    the phase-sum ratio is the median of the passes' own ratios. Raises
    when the phased pass's output differs from ``extract_document``'s."""
    from pdftext_ray.kernel.document import ExtractConfig, extract_document

    cfg = ExtractConfig()
    clock = time.perf_counter
    totals, phases = [], {p: [] for p in _PHASES}
    for _ in range(reps):
        total, acc = 0.0, dict.fromkeys(_PHASES, 0.0)
        n_pages = n_chars = 0
        with tracer.span("kernel.pass"):
            for i, (doc_id, payloads) in enumerate(docs):
                if i % 2:
                    got = _phased_document(payloads, cfg, acc)
                t0 = clock()
                want = extract_document(payloads, cfg)
                total += clock() - t0
                if not i % 2:
                    got = _phased_document(payloads, cfg, acc)
                if got != want:
                    raise AssertionError(f"phased kernel pass differs from extract_document "
                                         f"on {doc_id}")
                n_pages += want["n_pages"]
                n_chars += want["n_chars"]
        totals.append(total)
        for k in _PHASES:
            phases[k].append(acc[k])
    n_docs = len(docs)
    med = {k: statistics.median(v) for k, v in phases.items()}
    total = statistics.median(totals)
    ms = 1000.0
    return {
        "kernel.decode.ms_per_page": med["decode"] * ms / n_pages,
        "kernel.cluster.spans.ms_per_page": med["spans"] * ms / n_pages,
        "kernel.cluster.lines.ms_per_page": med["lines"] * ms / n_pages,
        "kernel.cluster.blocks.ms_per_page": med["blocks"] * ms / n_pages,
        "kernel.links.ms_per_doc": med["links"] * ms / n_docs,
        "kernel.span_sequence.ms_per_doc": med["span_sequence"] * ms / n_docs,
        "kernel.extract.ms_per_doc": total * ms / n_docs,
        "kernel.phase_sum_ratio": statistics.median(
            sum(phases[k][r] for k in _PHASES) / totals[r] for r in range(reps)),
        "kernel.pages": n_pages,
        "kernel.chars": n_chars,
    }


def stage_probe(table: pa.Table, tracer: Tracer, batch_size: int = 128, reps: int = 3) -> dict:
    """stages.extract.* metrics: the stage UDFs called on Arrow batches.

    The wrapper overhead compares ``DocumentExtractor`` on a batch with
    ``extract_document`` on the same batch's payloads, back to back."""
    import pyarrow.compute as pc

    from pdftext_ray.kernel.document import extract_document
    from pdftext_ray.stages import extract as X
    from raybench.inputs import payloads_of

    clock = time.perf_counter
    table = table.select(["doc_id", "spans"])
    n_docs = len(table)
    batches = [table.slice(k, batch_size) for k in range(0, n_docs, batch_size)]
    payloads = [[payloads_of(spans) for spans in b.column("spans").to_pylist()]
                for b in batches]
    stage, kernel = [], []
    for _ in range(reps):
        st = kt = 0.0
        with tracer.span("stages.extract.DocumentExtractor"):
            for b, docs in zip(batches, payloads):
                t0 = clock()
                X.DocumentExtractor()(b)
                t1 = clock()
                for p in docs:
                    extract_document(p)
                st, kt = st + t1 - t0, kt + clock() - t1
        stage.append(st)
        kernel.append(kt)
    pages = pa.concat_tables([X.explode_pages(b) for b in batches])
    with tracer.span("stages.extract.PageExtractor") as page_sp:
        states = pa.concat_tables([X.PageExtractor()(pages.slice(k, batch_size))
                                   for k in range(0, len(pages), batch_size)])
    ids = states.column("doc_id")
    groups = [states.filter(pc.equal(ids, d)) for d in pc.unique(ids).to_pylist()]
    with tracer.span("stages.extract.assemble_document") as asm_sp:
        for g in groups:
            X.assemble_document(g)
    ms = 1000.0 / n_docs
    return {
        "stages.extract.DocumentExtractor.ms_per_doc": statistics.median(stage) * ms,
        "stages.extract.overhead_ms_per_doc":
            statistics.median(s - k for s, k in zip(stage, kernel)) * ms,
        "stages.extract.PageExtractor.ms_per_page": sp_seconds(page_sp) * 1000.0 / len(pages),
        "stages.extract.assemble_document.ms_per_doc": sp_seconds(asm_sp) * 1000.0 / len(groups),
    }


def sp_seconds(span: dict) -> float:
    return span["end"] - span["start"]
