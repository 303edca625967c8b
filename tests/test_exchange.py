"""Contract of the op layer's one keyed exchange (``ops/exchange.by_key``)
and a structural guard that keeps it the only one."""

from __future__ import annotations

import ast
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from pdftext_ray.ops.exchange import by_key

PKG = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "pdftext_ray")
BIG = 2**53


def _rows(ds) -> list:
    return sorted(ds.take_all(), key=repr)


def _blocks(ds) -> list:
    return [ray.get(r) for b in ds.materialize().iter_internal_ref_bundles() for r in b.block_refs]


def test_one_side_empty_input_never_calls_fn():
    def fn(g):
        raise AssertionError("fn called on an empty input")

    typed = ray.data.from_arrow(pa.table({"k": pa.array([], pa.int64())}))
    colless = ray.data.from_arrow([pa.table({})])
    assert by_key((typed, "k"), fn).take_all() == []
    assert by_key((colless, "k"), fn).take_all() == []


def test_one_side_skips_empty_and_columnless_blocks():
    t = pa.table({"k": ["a", "b", "a"], "v": [1, 2, 3]})
    ds = ray.data.from_arrow([pa.table({}), t, t.slice(0, 0)])
    got = by_key((ds, "k"), lambda g: g.groupby("k", as_index=False)["v"].sum())
    assert _rows(got) == [{"k": "a", "v": 4}, {"k": "b", "v": 2}]


@pytest.mark.parametrize("keys", [
    [3, 1, 3, None, 7, None],
    ["x", "y", "x", None, "", None],
], ids=["int", "string"])
def test_one_side_groups_co_locate_including_nulls(keys):
    # every row of a key (null included) lands in the one part, so a
    # part-local aggregate is final
    typ = pa.int64() if isinstance(keys[0], int) else pa.string()
    t = pa.table({"k": pa.array(keys, typ), "v": list(range(len(keys)))})
    ds = ray.data.from_arrow([t.slice(0, 3), t.slice(3)])
    got = by_key((ds, "k"), lambda g: g.groupby("k", as_index=False, dropna=False)["v"].sum(), n_parts=4)
    want = t.to_pandas().groupby("k", as_index=False, dropna=False)["v"].sum()
    assert len(got.take_all()) == len(want)
    assert sorted(r["v"] for r in got.take_all()) == sorted(want["v"].tolist())


def test_one_side_pair_and_function_keys():
    # pair keys co-locate equal pairs; a part function decides parts itself
    t = pa.table({"a": [1, 2, 1, 3], "b": [5, 6, 5, 7]})
    ds = ray.data.from_arrow([t.slice(0, 2), t.slice(2)])
    pairs = by_key((ds, ("a", "b")), lambda g: g.drop_duplicates(), n_parts=3)
    assert _rows(pairs) == [{"a": 1, "b": 5}, {"a": 2, "b": 6}, {"a": 3, "b": 7}]

    def per_part(g):
        return pd.DataFrame({"part": [int(g["a"].iat[0] > 1)], "n": [len(g)]})

    ranged = by_key((ds, lambda tb: (tb.column("a").to_numpy() > 1).astype(np.int64)), per_part)
    assert _rows(ranged) == [{"part": 0, "n": 2}, {"part": 1, "n": 2}]


def test_pandas_block_metadata_is_stripped():
    # a batch_format="pandas" map hands the exchange blocks whose schema
    # carries pandas metadata (an unhashable dict); a table fn returns with
    # metadata too, and neither reaches the output
    t = pa.table({"k": ["a", "b", "a", "c", "b", "a"], "v": [1, 2, 3, 4, 5, 6]})
    pdf = ray.data.from_arrow(t).map_batches(lambda df: df.assign(v=df["v"] * 10), batch_format="pandas")
    assert pa.Table.from_pandas(t.to_pandas()).schema.metadata

    def fn(g):
        return pa.Table.from_pandas(g.groupby("k", as_index=False)["v"].sum(), preserve_index=False)

    out = by_key((pdf, "k"), fn, n_parts=2)
    assert all(b.schema.metadata is None for b in _blocks(out))
    assert _rows(out) == [{"k": "a", "v": 100}, {"k": "b", "v": 70}, {"k": "c", "v": 40}]


LEFT = pa.schema([("id", pa.int64()), ("x", pa.string())])
RIGHT = pa.schema([("id", pa.int64()), ("y", pa.int64())])


def test_two_sides_empty_side_gets_typed_frame():
    # the right side is only a column-less block and a zero-row block; fn
    # still gets its declared columns, typed
    left = ray.data.from_arrow(pa.table({"id": [1, 2], "x": ["p", "q"]}, schema=LEFT))
    right = ray.data.from_arrow([pa.table({}), RIGHT.empty_table()])

    def fn(g):
        r = g["right"]
        return pd.DataFrame({"n": [len(g["left"])], "right": [f"{list(r.columns)} {list(r.dtypes)} {len(r)}"]})

    out = by_key({"left": (left, "id", LEFT), "right": (right, "id", RIGHT)}, fn, n_parts=1)
    assert out.take_all() == [{"n": 2, "right": "['id', 'y'] [dtype('int64'), dtype('int64')] 0"}]


def test_two_sides_all_empty_input():
    def fn(g):
        raise AssertionError("fn called on an empty input")

    empty = ray.data.from_arrow([pa.table({})])
    assert by_key({"left": (empty, "id", LEFT), "right": (empty, "id", RIGHT)}, fn).take_all() == []


def test_left_attach_keeps_ids_past_2_53_exact():
    ids = [BIG + 1, BIG + 3, 2**62 + 7]
    left = ray.data.from_arrow(pa.table({"id": ids, "x": ["a", "b", "c"]}, schema=LEFT))
    right = ray.data.from_arrow(pa.table({"id": [BIG + 3], "y": [BIG + 5]}, schema=RIGHT))

    def attach(g):
        # the right side is int64 as declared; nullable before the left merge
        m = g["left"].merge(g["right"].astype({"y": "Int64"}), on="id", how="left")
        return pa.table({"id": pa.array(m["id"].to_numpy(), pa.int64()),
                         "y": pa.array(m["y"], pa.int64())})

    out = by_key({"left": (left, "id", LEFT), "right": (right, "id", RIGHT)}, attach, n_parts=2)
    got = {r["id"]: r["y"] for r in out.take_all()}
    assert got == {BIG + 1: None, BIG + 3: BIG + 5, 2**62 + 7: None}


def test_shared_column_with_two_types_raises():
    ds = ray.data.from_arrow(pa.table({"id": [1]}))
    other = pa.schema([("id", pa.string())])
    with pytest.raises(TypeError, match="'id'"):
        by_key({"left": (ds, "id", LEFT), "right": (ds, "id", other)}, lambda g: g["left"])


# --- structure -------------------------------------------------------------

# real-column groupbys over a few keys: each group is one key, so there is
# no part to tag and nothing for by_key to add
REAL_COLUMN_MAP_GROUPS = {
    ("ops/cluster.py", "cluster_balanced_sample"),
    ("ops/dedup.py", "semantic_dedup"),
    ("ops/similarity.py", "brute_force_topk_many"),
}


def _sources():
    for root, _, files in os.walk(PKG):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(root, f)
                yield os.path.relpath(path, PKG).replace(os.sep, "/"), open(path).read()


def test_exchange_is_the_only_keyed_exchange_in_the_op_layer():
    tagged, map_groups, helpers = [], [], []
    for rel, src in _sources():
        if rel == "ops/exchange.py":
            continue
        if '.groupby("_' in src:
            tagged.append(rel)
        tree = ast.parse(src)
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name in ("_key_part_tag", "_typed_dummies"):
                helpers.append(f"{rel}:{fn.name}")
        if not (rel.startswith("ops/") or rel == "pipelines/mixture.py"):
            continue
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and "map_groups(" in ast.get_source_segment(src, top):
                if (rel, top.name) not in REAL_COLUMN_MAP_GROUPS:
                    map_groups.append(f"{rel}:{top.name}")
    assert tagged == [], "tagged groupby outside ops/exchange.py"
    assert map_groups == [], "map_groups outside ops/exchange.py"
    assert helpers == []
