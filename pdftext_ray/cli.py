"""Command-line entry point — mirrors the reference CLI surface
(pdftext/scripts/extract_text.py:22-70) on the Ray engine.

    python -m pdftext_ray extract  --input DIR --output DIR [--mode spans|plain|dict|tables]
                                   [--sort/--no-sort] [--keep-hyphens] [--disable-links]
                                   [--pages 0,5-10] [--workers N] [--checkpoint] [--partitions K]
    python -m pdftext_ray gen      --output DIR --n-docs N [--seed S] [--profile mixed|plain]
    python -m pdftext_ray bench    [...]   (delegates to bench.py envs)

Owns its Ray session (the library never calls ray.init).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional


def parse_range_str(range_str: str) -> List[int]:
    """"0,5-10,12" → sorted deduped page list (scripts/extract_text.py:10-20)."""
    range_lst = range_str.split(",")
    page_lst = []
    for page_tok in range_lst:
        if "-" in page_tok:
            start, end = page_tok.split("-")
            page_lst += list(range(int(start), int(end) + 1))
        else:
            page_lst.append(int(page_tok))
    return sorted(set(page_lst))


def _ray_session(num_cpus: Optional[int]):
    """Own the Ray session. Honors RAY_ADDRESS so the same CLI is the
    `ray job submit` driver on a multi-node cluster (the job runtime sets
    RAY_ADDRESS to the cluster GCS; attaching drops num_cpus, a local-mode
    knob only, with a warning on stderr) and runs standalone otherwise."""
    import os as _os

    import ray

    address = _os.environ.get("RAY_ADDRESS", "local")
    kwargs = dict(address=address, ignore_reinit_error=True, logging_level="ERROR")
    if address == "local":  # instance-start knobs are invalid on attach
        kwargs["include_dashboard"] = False
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
    elif num_cpus:
        print(f"warning: --workers {num_cpus} ignored: attaching to the Ray "
              f"cluster at RAY_ADDRESS={address}", file=sys.stderr)
    ray.init(**kwargs)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def _filter_pages(ds, pages: Optional[List[int]]):
    """Page-range selection (M11/M12): drop text spans for unlisted pages.

    The reference filters the pdfium page range (extraction.py:46-47); here a
    vectorized map_batches drops payload spans whose position is outside the
    range (media spans follow their page).
    """
    if pages is None:
        return ds
    import pyarrow as pa

    page_set = set(pages)

    def keep(batch: pa.Table) -> pa.Table:
        rows = batch.column("spans").to_pylist()
        out = []
        for cell in rows:
            kept, text_pos, prev_page_kept = [], 0, False
            for s in cell or []:
                if s["kind"] == "text":
                    prev_page_kept = text_pos in page_set
                    text_pos += 1
                    if prev_page_kept:
                        kept.append(s)
                elif prev_page_kept:
                    kept.append(s)  # media rides with ITS OWN preceding page
            out.append(kept)
        from pdftext_ray.stages import schemas

        return pa.Table.from_arrays(
            [batch.column("doc_id"), pa.array(out, pa.list_(schemas.INPUT_SPAN))],
            names=["doc_id", "spans"],
        )

    return ds.map_batches(keep, batch_format="pyarrow")


def _max_doc_pages(ds) -> int:
    """Longest document's page count (= max per-row count of text spans),
    computed with one vectorized pass — feeds CLI page-range validation."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    def batch_max(batch: pa.Table) -> pa.Table:
        col = batch.column("spans").combine_chunks()
        if len(col) == 0:
            return pa.table({"n": pa.array([], pa.int64())})
        flat = col.flatten()
        is_text = pc.cast(pc.equal(flat.field("kind"), "text"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        offs = np.asarray(col.offsets)
        cs = np.r_[0, np.cumsum(is_text)].astype(np.int64)
        per_row = cs[offs[1:] - offs[0]] - cs[offs[:-1] - offs[0]]
        return pa.table({"n": pa.array([int(per_row.max(initial=0))], pa.int64())})

    res = ds.map_batches(batch_max, batch_format="pyarrow").max("n")
    return int(res or 0)


def cmd_extract(args) -> int:
    _ray_session(args.workers)
    from pdftext_ray.kernel.document import ExtractConfig
    from pdftext_ray.pipelines import checkpoint, extract as P

    cfg = ExtractConfig(
        sort=args.sort,
        hyphens=args.keep_hyphens,
        disable_links=args.disable_links,
        keep_chars=args.keep_chars,
        flatten_pdf=args.flatten_pdf,
    )
    try:
        pages = parse_range_str(args.pages) if args.pages else None
    except ValueError:
        # negative or non-numeric tokens ('-1' splits to ('', '1')) — report
        # like the reference instead of a raw int() traceback
        print(f"Invalid page range: {args.pages!r}", file=sys.stderr)
        return 2

    # --output is required for any write path (and always for --checkpoint):
    # catch it up front instead of an opaque TypeError deep in write_table
    if args.output is None and (args.checkpoint or not args.stdout):
        print("error: --output is required unless --stdout is given "
              "(and always with --checkpoint)", file=sys.stderr)
        return 2

    if args.checkpoint:
        if args.mode != "spans":
            print("--checkpoint supports mode=spans", file=sys.stderr)
            return 2
        res = checkpoint.run_checkpointed(args.input, args.output, cfg, num_partitions=args.partitions)
        print(res)
        return 0

    if args.mode == "spans" and pages is None and not args.limit and _is_parquet_dir(args.input):
        # an ingested corpus routes by its files (CLAUDE.md invariant 18):
        # each branch reads only its own, and no doc is sized in flight
        return _emit(args, P.extract_corpus_skew_aware(args.input, cfg))

    ds = P.read_documents(args.input)
    if args.limit:
        # limit FIRST: it bounds docs regardless of page filtering, and the
        # validation scan below then covers only the docs actually processed
        ds = ds.limit(args.limit)
    if pages is not None:
        # the reference ERRORS on a page range beyond the document
        # (scripts/extract_text.py:38-43: assert all pages < doc length);
        # the table analog validates against the longest SELECTED document
        # instead of silently filtering a page that exists nowhere. Only
        # --pages runs pay this extra validation pass over the input.
        if not pages:  # '5-3' parses to an empty range
            print(f"Invalid page range: {args.pages!r}", file=sys.stderr)
            return 2
        doc_len = _max_doc_pages(ds)
        bad = [p for p in pages if p >= doc_len]
        if bad:
            print(
                f"Invalid page range: page {bad[0]} out of bounds "
                f"(longest document has {doc_len} pages)",
                file=sys.stderr,
            )
            return 2
    ds = _filter_pages(ds, pages)
    if args.mode == "spans":  # sized in flight: a heavy doc still page-explodes
        return _emit(args, P.extract_spans_skew_aware(ds, cfg))
    return _emit(args, P.extract(ds, args.mode, cfg))


def _is_parquet_dir(path: str) -> bool:
    """A dir holding parquet files (the ingest layout), not a lance/orc/json table."""
    import glob
    import os

    return os.path.isdir(path) and next(
        glob.iglob(os.path.join(path, "**", "*.parquet"), recursive=True), None
    ) is not None


def _emit(args, out) -> int:
    """Print the extraction rows (--stdout) or write them to --output."""
    from pdftext_ray.storage import write_table

    if args.stdout:
        # reference CLI prints to stdout by default (scripts/extract_text.py:66-70)
        for row in out.iter_rows():
            if args.mode == "plain":
                print(row["text"])
            else:
                import json

                print(json.dumps(row, default=str))
        return 0
    write_table(out, args.output)
    print(f"wrote {args.output}")
    return 0


def cmd_gen(args) -> int:
    _ray_session(args.workers)
    from pdftext_ray.pipelines import corpus_io

    corpus_io.materialize_corpus(args.output, args.n_docs, args.seed, args.profile, overwrite=True)
    print(f"wrote {args.output} ({args.n_docs} docs, seed {args.seed})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(prog="pdftext_ray")
    sub = p.add_subparsers(dest="cmd", required=True)

    pe = sub.add_parser("extract", help="run an extraction pipeline")
    pe.add_argument("--input", required=True, help="input document table (parquet/lance dir)")
    pe.add_argument("--output", default=None, help="output directory (omit with --stdout)")
    pe.add_argument("--mode", default="spans", choices=["spans", "plain", "dict", "tables"])
    pe.add_argument("--pages", default=None, help='page range like "0,5-10,12"')
    pe.add_argument("--sort", action=argparse.BooleanOptionalAction, default=True)
    pe.add_argument("--keep-hyphens", action="store_true")
    pe.add_argument("--disable-links", action="store_true")
    pe.add_argument("--keep-chars", action="store_true")
    pe.add_argument("--flatten-pdf", action="store_true",
                    help="merge form-field text into page content (FPDFPage_Flatten analog)")
    pe.add_argument("--workers", type=int, default=None, help="ray num_cpus")
    pe.add_argument("--limit", type=int, default=None, help="max docs (reference --max)")
    pe.add_argument("--stdout", action="store_true", help="print results instead of writing")
    pe.add_argument("--checkpoint", action="store_true", help="resumable partitioned run")
    pe.add_argument("--partitions", type=int, default=8)
    pe.set_defaults(fn=cmd_extract)

    pg = sub.add_parser("gen", help="generate a deterministic corpus")
    pg.add_argument("--output", required=True)
    pg.add_argument("--n-docs", type=int, required=True)
    pg.add_argument("--seed", type=int, default=42)
    pg.add_argument("--profile", default="mixed", choices=["mixed", "plain"])
    pg.add_argument("--workers", type=int, default=None)
    pg.set_defaults(fn=cmd_gen)

    args = p.parse_args(argv)
    rc = args.fn(args)
    import ray

    if ray.is_initialized():
        ray.shutdown()
    return rc


if __name__ == "__main__":
    sys.exit(main())
