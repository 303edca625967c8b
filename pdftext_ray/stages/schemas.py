"""Arrow schemas for every stage boundary (SURVEY.md §1.2).

All inter-stage data is Arrow; nested structures are list<struct> columns so
blocks stay zero-copy in the object store.
"""

from __future__ import annotations

import pyarrow as pa

BBOX = pa.list_(pa.float64(), 4)

# Public input table (BASELINE.json input_hint).
INPUT_SPAN = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("offset", pa.int32()),
    ]
)
INPUT_SCHEMA = pa.schema([("doc_id", pa.string()), ("spans", pa.list_(INPUT_SPAN))])

# Flagship output: the north-rule span sequence + per-doc metrics.
OUTPUT_SPAN = pa.struct(
    [
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
        ("order", pa.int32()),
    ]
)
SPAN_SEQ_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("spans", pa.list_(OUTPUT_SPAN)),
        ("n_pages", pa.int32()),
        ("n_chars", pa.int64()),
        ("error", pa.string()),
    ]
)

# Flattened span sequence (one row per span) — the driver-comparable shape.
FLAT_SPAN_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("order", pa.int32()),
        ("kind", pa.string()),
        ("text", pa.string()),
        ("media_ref", pa.string()),
    ]
)

# Dictionary output (reference dictionary_output parity, SURVEY.md §2.2 M9).
FONT = pa.struct(
    [
        ("name", pa.string()),
        ("flags", pa.int32()),
        ("size", pa.float64()),
        ("weight", pa.float64()),
    ]
)
CHAR = pa.struct(
    [
        ("char", pa.string()),
        ("bbox", BBOX),
        ("rotation", pa.float64()),
        ("char_idx", pa.int32()),
    ]
)


def span_struct(keep_chars: bool) -> pa.StructType:
    fields = [
        ("bbox", BBOX),
        ("text", pa.string()),
        ("font", FONT),
        ("char_start_idx", pa.int32()),
        ("char_end_idx", pa.int32()),
        ("rotation", pa.float64()),
        ("url", pa.string()),
        ("superscript", pa.bool_()),
        ("subscript", pa.bool_()),
    ]
    if keep_chars:
        fields.append(("chars", pa.list_(CHAR)))
    return pa.struct(fields)


def page_struct(keep_chars: bool) -> pa.StructType:
    line = pa.struct([("bbox", BBOX), ("spans", pa.list_(span_struct(keep_chars)))])
    block = pa.struct([("bbox", BBOX), ("lines", pa.list_(line))])
    ref = pa.struct([("idx", pa.int32()), ("page", pa.int32()), ("coord", pa.list_(pa.float64(), 2))])
    return pa.struct(
        [
            ("page", pa.int32()),
            ("bbox", BBOX),
            ("width", pa.int32()),
            ("height", pa.int32()),
            ("rotation", pa.int16()),
            ("refs", pa.list_(ref)),
            ("blocks", pa.list_(block)),
        ]
    )


def dictionary_schema(keep_chars: bool = False) -> pa.Schema:
    return pa.schema([("doc_id", pa.string()), ("pages", pa.list_(page_struct(keep_chars)))])


# Plain-text output (reference plain_text_output parity, M10).
PLAIN_TEXT_SCHEMA = pa.schema([("doc_id", pa.string()), ("text", pa.string())])
# ... and one row per (doc, page): reference paginated_plain_text_output.
PAGINATED_TEXT_SCHEMA = pa.schema([("doc_id", pa.string()), ("page", pa.int32()), ("text", pa.string())])

# Table-cell output (T1): one row per (doc, page, table).
TABLE_CELL = pa.struct([("text", pa.string()), ("bbox", BBOX)])
TABLE_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("page", pa.int32()),
        ("table_idx", pa.int32()),
        ("cells", pa.list_(TABLE_CELL)),
    ]
)

# Exploded page rows (huge-doc path).
PAGE_ROW_SCHEMA = pa.schema(
    [
        ("doc_id", pa.string()),
        ("page_pos", pa.int32()),
        ("payload", pa.string()),
    ]
)
