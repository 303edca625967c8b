"""Relational demo operators: partial-aggregate groupby and windowed
aggregation over stream-shaped tables (SURVEY.md §2.5 / §2.10 mappings).

The groupby pattern is the scale-correct one from the Ray guide: partial
aggregation INSIDE map_batches (one row per key per batch) so the shuffle
moves key-cardinality rows, not data-cardinality rows.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data
from ray.data.aggregate import Sum

from pdftext_ray.ops import from_pandas_clean, round_half_away
from pdftext_ray.ops.exchange import by_key


def lineitem_pricing_summary(ds: ray.data.Dataset) -> ray.data.Dataset:
    """TPC-H-Q1-flavored pricing summary with partial pre-aggregation.

    Output columns (must match the oracle SQL aliases): l_returnflag,
    l_linestatus, sum_qty, sum_base_price, sum_disc_price, n_rows.
    """
    def partial(batch: pa.Table) -> pa.Table:
        # pure-Arrow partial aggregate (VERDICT r2: no pandas round-trip in
        # the wide per-batch stage; the tiny post-shuffle shape still uses
        # it). Money columns accumulate in fixed point (CLAUDE.md invariant
        # 13): price_cents int64 and price_cents*(100-disc_cents) e4 sums
        # are order-independent across engines, unlike float sums whose
        # 2-decimal rounding can flip on a .xx5 boundary. l_quantity is
        # integer-valued, so its float sum is exact (≤2^53) and stays float.
        import pyarrow.compute as pc

        price_c = pc.cast(
            pc.round(pc.multiply(batch.column("l_extendedprice"), pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        disc_c = pc.cast(
            pc.round(pc.multiply(batch.column("l_discount"), pa.scalar(100.0)),
                     round_mode="half_towards_infinity"),
            pa.int64(),
        )
        disc_e4 = pc.multiply(price_c, pc.subtract(pa.scalar(100, pa.int64()), disc_c))
        g = (
            batch.append_column("price_cents", price_c)
            .append_column("disc_e4", disc_e4)
            .group_by(["l_returnflag", "l_linestatus"])
            .aggregate([
                ("l_quantity", "sum"),
                ("price_cents", "sum"),
                ("disc_e4", "sum"),
                ("l_quantity", "count"),
            ])
        )
        return g.rename_columns([
            "l_returnflag", "l_linestatus",
            "sum_qty", "base_cents", "disc_e4", "n_rows",
        ])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    final = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("base_cents", alias_name="base_cents"),
        Sum("disc_e4", alias_name="disc_e4"),
        Sum("n_rows", alias_name="n_rows"),
    )

    def shape(batch: pa.Table) -> pa.Table:
        from pdftext_ray.ops import assert_fixed_point_headroom

        df = batch.to_pandas()
        # e4 per row ≤ 2^31 (prices ≤ ~$214k); loud long before int64 wraps
        assert_fixed_point_headroom(df["n_rows"], 2**31, "pricing_summary")
        df["sum_qty"] = round_half_away(df["sum_qty"], 2)
        df["sum_base_price"] = df["base_cents"].astype("int64") / 100.0
        # integer half-up e4→cents (prices > 0 so half-up == half away from
        # zero), mirrored by the oracle's (e4 + 50) // 100
        df["sum_disc_price"] = ((df["disc_e4"].astype("int64") + 50) // 100) / 100.0
        df["n_rows"] = df["n_rows"].astype("int64")
        return from_pandas_clean(
            df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price", "sum_disc_price", "n_rows"]]
        )

    return final.map_batches(shape, batch_format="pyarrow")


def _pricing_cents_partial(batch: pa.Table) -> pa.Table:
    """Shared rollup/cube batch partial: per-(returnflag, linestatus) sums
    with the money column in fixed-point int64 cents (CLAUDE.md invariant
    13 — float sums accumulate in engine-specific order and can flip the
    2-decimal rounding); l_quantity is integer-valued so its float sum is
    exact and stays float."""
    import pyarrow.compute as pc

    price_c = pc.cast(
        pc.round(pc.multiply(batch.column("l_extendedprice"), pa.scalar(100.0)),
                 round_mode="half_towards_infinity"),
        pa.int64(),
    )
    g = (
        batch.append_column("price_cents", price_c)
        .group_by(["l_returnflag", "l_linestatus"])
        .aggregate([
            ("l_quantity", "sum"),
            ("price_cents", "sum"),
            ("l_quantity", "count"),
        ])
    )
    return g.rename_columns(
        ["l_returnflag", "l_linestatus", "sum_qty", "price_cents", "n_rows"]
    )


def lineitem_pricing_rollup(ds: ray.data.Dataset) -> ray.data.Dataset:
    """ROLLUP(l_returnflag, l_linestatus) pricing aggregate: base groups,
    per-returnflag subtotals, and the grand total in one result (the
    GROUPING SETS family, absent from both the reference and Ray Data).

    Plan: the scale-correct part is identical to the Q1 plan — batch-level
    partial aggregation so the shuffle moves key-cardinality rows — and the
    rollup EXPANSION runs on the already-aggregated tiny table (rows =
    distinct base keys), where re-aggregating the two coarser levels is
    driver-scale arithmetic inside one map_batches over a single partition.
    Subtotal levels use the sentinel 'ALL' instead of SQL's NULLs so the
    oracle comparison is null-convention independent.
    """
    partials = ds.map_batches(
        _pricing_cents_partial, batch_format="pyarrow", batch_size=65536
    )
    base = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("price_cents", alias_name="price_cents"),
        Sum("n_rows", alias_name="n_rows"),
    )

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        from pdftext_ray.ops import assert_fixed_point_headroom

        # cents per row ≤ 2^27 (~$1.3M); the grand-total row is the worst case
        assert_fixed_point_headroom([df["n_rows"].sum()], 2**27, "pricing_rollup")
        metrics = ["sum_qty", "price_cents", "n_rows"]
        lvl1 = df.groupby("l_returnflag", as_index=False)[metrics].sum()
        lvl1["l_linestatus"] = "ALL"
        lvl0 = df[metrics].sum().to_frame().T
        lvl0["l_returnflag"] = "ALL"
        lvl0["l_linestatus"] = "ALL"
        out = pd.concat([df, lvl1, lvl0], ignore_index=True)
        out["sum_qty"] = round_half_away(out["sum_qty"], 2)
        out["sum_price"] = out["price_cents"].astype("int64") / 100.0
        out["n_rows"] = out["n_rows"].astype("int64")
        return from_pandas_clean(
            out[["l_returnflag", "l_linestatus", "sum_qty", "sum_price", "n_rows"]]
        )

    return base.repartition(1).map_batches(
        expand, batch_format="pandas", batch_size=None
    )


def lineitem_pricing_cube(ds: ray.data.Dataset) -> ray.data.Dataset:
    """CUBE(l_returnflag, l_linestatus) pricing aggregate — all four
    grouping sets {(rf,ls), (rf), (ls), ()} in one result (completes the
    GROUPING SETS family beside lineitem_pricing_rollup).

    Same scale shape as the rollup: batch-level partial aggregation so the
    shuffle moves key-cardinality rows; the cube EXPANSION re-aggregates
    the tiny base table (rows = distinct base keys) inside one map_batches
    over a single partition. 'ALL' sentinels instead of SQL NULLs keep the
    oracle comparison null-convention independent.
    """
    partials = ds.map_batches(
        _pricing_cents_partial, batch_format="pyarrow", batch_size=65536
    )
    base = partials.groupby(["l_returnflag", "l_linestatus"]).aggregate(
        Sum("sum_qty", alias_name="sum_qty"),
        Sum("price_cents", alias_name="price_cents"),
        Sum("n_rows", alias_name="n_rows"),
    )

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        from pdftext_ray.ops import assert_fixed_point_headroom

        assert_fixed_point_headroom([df["n_rows"].sum()], 2**27, "pricing_cube")
        metrics = ["sum_qty", "price_cents", "n_rows"]
        by_rf = df.groupby("l_returnflag", as_index=False)[metrics].sum()
        by_rf["l_linestatus"] = "ALL"
        by_ls = df.groupby("l_linestatus", as_index=False)[metrics].sum()
        by_ls["l_returnflag"] = "ALL"
        total = df[metrics].sum().to_frame().T
        total["l_returnflag"] = "ALL"
        total["l_linestatus"] = "ALL"
        out = pd.concat([df, by_rf, by_ls, total], ignore_index=True)
        out["sum_qty"] = round_half_away(out["sum_qty"], 2)
        out["sum_price"] = out["price_cents"].astype("int64") / 100.0
        out["n_rows"] = out["n_rows"].astype("int64")
        return from_pandas_clean(
            out[["l_returnflag", "l_linestatus", "sum_qty", "sum_price", "n_rows"]]
        )

    return base.repartition(1).map_batches(
        expand, batch_format="pandas", batch_size=None
    )


def events_hourly_window(ds: ray.data.Dataset) -> ray.data.Dataset:
    """Tumbling 1-hour window per event_type (batch-implemented streaming
    window, SURVEY.md §2.10): window_start, event_type, n_events, sum_value.

    Window assignment is a vectorized floor-to-hour inside map_batches (no
    per-key actor state needed — tumbling windows over bounded input reduce
    to a grouped aggregate on (window, key) with batch-level partials).
    """
    def partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["window_start"] = df["ts"].dt.floor("h")
        # int64-cents sum (invariant 13): events.value is exact 2-decimal,
        # so cents sums are order-independent across engines
        from pdftext_ray.ops import money_cents

        df["_cents"] = money_cents(df["value"].to_numpy())
        g = df.groupby(["window_start", "event_type"], as_index=False).agg(
            n_events=("event_id", "size"), sum_cents=("_cents", "sum")
        )
        return from_pandas_clean(g)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    final = partials.groupby(["window_start", "event_type"]).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_cents", alias_name="sum_cents"),
    )

    def shape(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["n_events"] = df["n_events"].astype("int64")
        df["sum_value"] = df["sum_cents"].astype("int64") / 100.0
        return from_pandas_clean(df[["window_start", "event_type", "n_events", "sum_value"]])

    return final.map_batches(shape, batch_format="pyarrow")


def events_sliding_window(
    ds: ray.data.Dataset,
    width_sec: int = 3600,
    slide_sec: int = 900,
) -> ray.data.Dataset:
    """Sliding windows (width 1h, slide 15m by default) per event_type.

    Each event is expanded to its width/slide overlapping windows in a
    vectorized map_batches (np.repeat over the k window offsets), partially
    aggregated per batch, then reduced with one small groupby — the sliding
    variant of the tumbling-window plan. Output: window_start, event_type,
    n_events, sum_value.
    """
    assert width_sec % slide_sec == 0, "width must be a multiple of slide"
    k = width_sec // slide_sec

    def expand(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        if df.empty:
            # dtype must MATCH the non-empty branch (invariant 12):
            # pd.to_datetime(..., unit="s") yields datetime64[ns], so an
            # empty [us] here would ship a mixed timestamp[us]/[ns] schema
            # into the keyed shuffle
            return pa.table({"window_start": pd.Series([], dtype="datetime64[ns]"),
                             "event_type": pd.Series([], dtype="object"),
                             "n_events": pd.Series([], dtype="int64"),
                             "sum_cents": pd.Series([], dtype="int64")})
        # unit-agnostic floor to epoch seconds (inputs may be us or ns)
        epoch = df["ts"].dt.floor("s").astype("datetime64[s]").astype("int64")
        base = (epoch // slide_sec) * slide_sec
        offs = np.arange(k) * slide_sec
        starts = np.repeat(base.to_numpy(), k) - np.tile(offs, len(df))
        # int64-cents sum (invariant 13): order-independent across engines
        from pdftext_ray.ops import money_cents

        cents = money_cents(df["value"].to_numpy())
        g = pd.DataFrame(
            {
                "window_start": pd.to_datetime(starts, unit="s"),
                "event_type": np.repeat(df["event_type"].to_numpy(), k),
                "cents": np.repeat(cents, k),
            }
        ).groupby(["window_start", "event_type"], as_index=False).agg(
            n_events=("cents", "size"), sum_cents=("cents", "sum")
        )
        return from_pandas_clean(g)

    partials = ds.map_batches(expand, batch_format="pyarrow", batch_size=65536)
    final = partials.groupby(["window_start", "event_type"]).aggregate(
        Sum("n_events", alias_name="n_events"),
        Sum("sum_cents", alias_name="sum_cents"),
    )

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df["n_events"] = df["n_events"].astype("int64")
        df["sum_value"] = df["sum_cents"].astype("int64") / 100.0
        return df[["window_start", "event_type", "n_events", "sum_value"]]

    return final.map_batches(shape, batch_format="pandas")


def events_props_summary(ds: ray.data.Dataset) -> ray.data.Dataset:
    """JSON payload parse + grouped aggregate: extract the integer field
    ``k`` from the ``props`` JSON column (C-backed ``json.loads`` per value
    — pyarrow has no JSON-path kernel), then the standard partial→final
    grouped plan per event_type. Output: event_type, n, sum_k, avg_k
    (avg computed from the final sums, NOT averaged per batch)."""
    import json

    def partial(batch: pa.Table) -> pa.Table:
        ks = np.fromiter(
            (json.loads(s)["k"] for s in batch.column("props").to_pylist()),
            dtype=np.int64,
            count=batch.num_rows,
        )
        df = pd.DataFrame({"event_type": batch.column("event_type").to_pandas(), "k": ks})
        g = df.groupby("event_type", as_index=False).agg(
            n=("k", "size"), sum_k=("k", "sum")
        )
        return from_pandas_clean(g)

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    final = partials.groupby("event_type").aggregate(
        Sum("n", alias_name="n"), Sum("sum_k", alias_name="sum_k")
    )

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df["n"] = df["n"].astype("int64")
        df["sum_k"] = df["sum_k"].astype("int64")
        df["avg_k"] = round_half_away(df["sum_k"].to_numpy() / df["n"].to_numpy(), 6)
        return df[["event_type", "n", "sum_k", "avg_k"]]

    return final.map_batches(shape, batch_format="pandas")


def hash_grouped_agg(
    ds: ray.data.Dataset,
    keys,
    named_aggs: dict,
    n_parts: int = None,
) -> ray.data.Dataset:
    """High-cardinality grouped aggregation: ONE few-partition shuffle on
    hash(first key) co-locates every group, then a single vectorized pandas
    ``groupby(keys).agg`` per partition. Because each key lives in exactly
    one partition, partition-local results are FINAL — no second reduce.

    Use when the number of distinct keys is large: Ray's per-distinct-key
    aggregates (built-in Sum/Min/Count included) pay ~65 µs/key, which at
    10⁹ keys IS the job. For small key spaces the native
    ``groupby().aggregate()`` partial-agg plan is equivalent and simpler.
    ``named_aggs``: {out_col: (in_col, fn)} pandas NamedAgg tuples.
    """
    keys = [keys] if isinstance(keys, str) else list(keys)

    def per_part(g: pd.DataFrame):
        # dropna=False: a null key must form its own group (parity with the
        # Ray-native aggregate this replaces), not silently drop rows
        return g.groupby(keys, as_index=False, dropna=False).agg(**{
            out: pd.NamedAgg(column=col, aggfunc=fn) for out, (col, fn) in named_aggs.items()
        })

    return by_key((ds, keys[0]), per_part, n_parts)


def sessionize_events(
    ds: ray.data.Dataset,
    gap_minutes: int = 30,
    key: str = "user_id",
    ts: str = "ts",
) -> ray.data.Dataset:
    """Session windows per key: a new session starts when the gap since the
    previous event exceeds ``gap_minutes`` (SURVEY.md §2.10 engine-side
    streaming shape).

    Plan: ONE few-partition shuffle on hash(key) co-locates each key, then
    the whole partition sessionizes in one vectorized pass — sort by
    (key, ts), session breaks where the key changes OR the gap exceeds the
    threshold, cumulative-sum session ids, one grouped aggregate. (A
    per-distinct-key map_groups pays Ray's ~65 µs/key overhead — at 10⁸
    users that is the op; this form is key-cardinality-independent.)

    Output: user_id, session_start, n_events, sum_value, duration_sec.
    """
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts]).reset_index(drop=True)
        # int64-cents sum (invariant 13): per-session float sums accumulate
        # in engine-specific order; cents sums are exact on both sides
        from pdftext_ray.ops import money_cents

        g["_cents"] = money_cents(g["value"].to_numpy())
        new_key = g[key].ne(g[key].shift())
        gap = g[ts].diff() > pd.Timedelta(minutes=gap_minutes)
        session = (new_key | gap).cumsum()
        agg = g.groupby(session).agg(
            user=(key, "first"),
            session_start=(ts, "min"),
            session_end=(ts, "max"),
            n_events=(ts, "size"),
            sum_cents=("_cents", "sum"),
        )
        # whole-second boundary difference (matches SQL date_diff('second',...))
        agg["duration_sec"] = (
            (agg["session_end"].dt.floor("s") - agg["session_start"].dt.floor("s"))
            .dt.total_seconds()
            .astype("int64")
        )
        agg["n_events"] = agg["n_events"].astype("int64")
        agg["sum_value"] = agg["sum_cents"].astype("int64") / 100.0
        agg = agg.rename(columns={"user": key})
        return agg[[key, "session_start", "n_events", "sum_value", "duration_sec"]]

    return by_key((ds, key), per_part)


def events_window_functions(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts: str = "ts",
    value: str = "value",
    id_col: str = "event_id",
) -> ray.data.Dataset:
    """Per-key ordered window functions — the ``OVER (PARTITION BY key
    ORDER BY ts, id)`` family (row_number, lag, lead, running sum, 3-row
    moving average) as ONE few-partition hash shuffle + a vectorized pandas
    pass per partition (key-cardinality-independent; a per-distinct-key
    map_groups pays Ray's ~65 µs/key — see sessionize_events).

    Float determinism: the input value column is 2-decimal, so running
    sums accumulate in integer cents (int64) — layout-independent by
    construction (integer addition commutes exactly; float cumsum order
    would drift in the last bits across layouts) and equal to SQL's
    ``round(sum(value) OVER ..., 2)``. The moving average divides a cents
    sum by 100·count, which can never land exactly on a 5e-7 half-boundary
    (denominator 300 shares no factor with 2·10⁶), so round-to-6 matches
    SQL for every input.

    Output: id, key, ts, value, row_num, prev_value, next_value,
    running_sum, moving_avg3.
    """
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, id_col]).reset_index(drop=True)
        grp = g.groupby(key, sort=False)
        cents = np.asarray(round_half_away(g[value].to_numpy() * 100.0, 0), dtype=np.int64)
        g["row_num"] = (grp.cumcount() + 1).astype("int64")
        g["prev_value"] = grp[value].shift(1)
        g["next_value"] = grp[value].shift(-1)
        g["_cents"] = cents
        g["running_sum"] = round_half_away(
            g.groupby(key, sort=False)["_cents"].cumsum().to_numpy() / 100.0, 2
        )
        c1 = g.groupby(key, sort=False)["_cents"].shift(1)
        c2 = g.groupby(key, sort=False)["_cents"].shift(2)
        cnt = 1 + c1.notna().to_numpy() + c2.notna().to_numpy()
        msum = cents + c1.fillna(0).to_numpy().astype(np.int64) + c2.fillna(0).to_numpy().astype(np.int64)
        g["moving_avg3"] = round_half_away(msum / (100.0 * cnt), 6)
        cols = [id_col, key, ts, value, "row_num", "prev_value", "next_value", "running_sum", "moving_avg3"]
        return g[cols]

    return by_key((ds, key), per_part)


def grouped_topk(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    k: int = 3,
    id_col: str = "event_id",
) -> ray.data.Dataset:
    """Top-k rows per group by value (ties broken by id asc) — the window
    row_number() pattern as one vectorized sort+head per hash partition
    (co-located groups; never a global sort, never a per-distinct-group
    map_groups)."""
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        out = g.sort_values(
            [group_col, value_col, id_col], ascending=[True, False, True]
        )
        out = out.groupby(group_col, as_index=False, sort=False).head(k).copy()
        out["rank"] = out.groupby(group_col, sort=False).cumcount() + 1
        return out

    return by_key((ds, group_col), per_part)


def user_journey_paths(
    ds: ray.data.Dataset,
    key: str = "user_id",
    ts: str = "ts",
    step_col: str = "event_type",
    id_col: str = "event_id",
    sep: str = ">",
) -> ray.data.Dataset:
    """Ordered per-key string aggregation — each user's event-type sequence
    joined into one path string (the journey/funnel-exploration query;
    SQL's ``string_agg(... ORDER BY ts, id)``).

    ONE co-locating hash shuffle on key, then a vectorized sort +
    groupby-join per partition (key-cardinality-independent). The order
    key includes the row id so ties are deterministic on both sides.
    Output: key, n_steps, path.
    """
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values([key, ts, id_col])
        agg = g.groupby(key, sort=True).agg(
            n_steps=(step_col, "size"), path=(step_col, sep.join)
        )
        agg["n_steps"] = agg["n_steps"].astype("int64")
        return agg.reset_index()[[key, "n_steps", "path"]]

    return by_key((ds, key), per_part)


def pivot_hourly_counts(
    ds: ray.data.Dataset,
    key_col: str = "event_type",
    ts_col: str = "ts",
) -> ray.data.Dataset:
    """PIVOT: long events → one row per key with 24 hour-of-day count
    columns (h00..h23) + total — the wide-matrix reshape SQL spells
    ``count(*) FILTER (WHERE hour = k)``.

    Scale shape: the only data-sized work is the partial (key, hour)
    count inside map_batches (≤ 24·#keys rows per block cross the wire);
    the RESHAPE runs on the aggregated tiny table in one single-partition
    map_batches. Column set is STATIC (24 hours) — a pivot over an
    unbounded value domain would make schema data-dependent, which is the
    documented reason this op pins the spread dimension.
    """
    hour_cols = [f"h{h:02d}" for h in range(24)]

    def partial(batch: pa.Table) -> pa.Table:
        ktype = batch.schema.field(key_col).type
        df = batch.to_pandas()
        df["hour"] = df[ts_col].dt.hour.astype("int64")
        g = df.groupby([key_col, "hour"], as_index=False).size()
        # TYPE every output column (invariant 12): an empty batch's frame
        # would otherwise infer null types and break the keyed shuffle
        return pa.Table.from_arrays(
            [
                pa.Array.from_pandas(g[key_col], type=ktype),
                pa.Array.from_pandas(g["hour"], type=pa.int64()),
                pa.Array.from_pandas(g["size"].astype("int64"), type=pa.int64()),
            ],
            names=[key_col, "hour", "n"],
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=65536)
    final = partials.groupby([key_col, "hour"]).aggregate(Sum("n", alias_name="n"))

    def reshape(df: pd.DataFrame):
        # no empty branch: Ray never invokes map_batches UDFs on zero-row
        # blocks (verified on 2.49), so df is always non-empty here — a
        # hardcoded empty schema would only risk a type mismatch
        wide = df.pivot_table(
            index=key_col, columns="hour", values="n", aggfunc="sum", fill_value=0
        )
        wide = wide.reindex(columns=range(24), fill_value=0).astype("int64")
        wide.columns = hour_cols
        wide["total"] = wide.sum(axis=1).astype("int64")
        return from_pandas_clean(wide.reset_index().sort_values(key_col))

    return final.repartition(1).map_batches(
        reshape, batch_format="pandas", batch_size=None
    )


def upsert_latest(
    ds: ray.data.Dataset,
    key: str,
    version_col: str,
) -> ray.data.Dataset:
    """Corpus-refresh upsert: of all rows sharing a key, keep the one with
    the highest version (ties broken deterministically by preferring the
    LARGEST remaining column tuple — versions are unique per key in a sane
    ingest, the tie-break just pins the contract). The merge-new-crawl-
    into-corpus primitive.

    One few-partition hash shuffle on key co-locates versions; the
    per-partition vectorized sort+drop_duplicates is globally exact. Never
    a per-distinct-key aggregate (~65 µs/key) and never a broadcast — both
    sides of the merge stream.
    """
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        other = [c for c in g.columns if c not in (key, version_col)]
        g = g.sort_values([key, version_col, *other], ascending=False)
        return g.drop_duplicates(subset=[key], keep="first").sort_values(key)

    return by_key((ds, key), per_part)


def funnel_conversion(
    ds: ray.data.Dataset,
    first_step: str = "click",
    second_step: str = "purchase",
    window_hours: int = 24,
    key: str = "user_id",
    ts: str = "ts",
    type_col: str = "event_type",
) -> ray.data.Dataset:
    """Two-step funnel: of the users with a ``first_step`` event, how many
    have a ``second_step`` event within ``window_hours`` of their FIRST
    first-step event (the product-analytics conversion query).

    Plan: project to the two step types at the read, ONE few-partition
    hash shuffle on key co-locates each user's events, a vectorized pass
    per partition computes (entered, converted) — timestamp comparisons
    are exact µs integers — and the per-partition counts reduce to one
    row driver-side. Output: n_entered, n_converted, conversion_rate
    (round 6; int/int division — SQL-identical).
    """
    def project(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = pc.is_in(t.column(type_col), value_set=pa.array([first_step, second_step]))
        return t.filter(keep).select([key, ts, type_col])

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        firsts = (
            g[g[type_col] == first_step].groupby(key)[ts].min()
        )
        entered = len(firsts)
        if entered == 0:
            return pd.DataFrame({"entered": [0], "converted": [0]})
        second = g[g[type_col] == second_step].merge(
            firsts.rename("t0"), left_on=key, right_index=True
        )
        lim = second["t0"] + pd.Timedelta(hours=window_hours)
        ok = second[(second[ts] >= second["t0"]) & (second[ts] <= lim)]
        converted = ok[key].nunique()
        return pd.DataFrame({"entered": [entered], "converted": [int(converted)]})

    parts = by_key((ds.map_batches(project, batch_format="pyarrow"), key), per_part).to_pandas()
    n_entered = int(parts["entered"].sum())
    n_converted = int(parts["converted"].sum())
    rate = float(round_half_away(n_converted / max(n_entered, 1), 6))
    return ray.data.from_arrow(pa.table({
        "n_entered": pa.array([n_entered], pa.int64()),
        "n_converted": pa.array([n_converted], pa.int64()),
        "conversion_rate": pa.array([rate], pa.float64()),
    }))


def retention_cohorts(
    ds: ray.data.Dataset,
    max_offset_days: int = 7,
    key: str = "user_id",
    ts: str = "ts",
) -> ray.data.Dataset:
    """Cohort retention matrix: users grouped by the DATE of their first
    event; for each (cohort_day, day_offset ≤ max) the number of cohort
    users active that day (the DAU-retention analytics query).

    Plan: ONE co-locating hash shuffle on key; per partition a vectorized
    pass computes each user's first day + distinct active-day offsets and
    pre-counts (cohort, offset) pairs; the final grouped sum is
    cohort·offset-cardinality small. Cohort days emit as '%Y-%m-%d'
    STRINGS — the date-type-convention-free comparison (DuckDB DATE and
    pandas datetime64 stringify differently otherwise).

    Output: cohort_day, day_offset, n_users.
    """
    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        g = g[[key, ts]].copy()
        g["day"] = g[ts].dt.floor("D")
        g = g[[key, "day"]].drop_duplicates()
        first = g.groupby(key)["day"].transform("min")
        off = ((g["day"] - first).dt.days).astype("int64")
        keep = off <= max_offset_days
        out = pd.DataFrame({
            "cohort_day": first[keep].dt.strftime("%Y-%m-%d"),
            "day_offset": off[keep],
        }).groupby(["cohort_day", "day_offset"], as_index=False).size()
        out.columns = ["cohort_day", "day_offset", "n_users"]
        return out

    final = by_key((ds, key), per_part).groupby(["cohort_day", "day_offset"]).aggregate(
        Sum("n_users", alias_name="n_users")
    )

    def shape(df: pd.DataFrame) -> pd.DataFrame:
        df["n_users"] = df["n_users"].astype("int64")
        return df[["cohort_day", "day_offset", "n_users"]]

    return final.map_batches(shape, batch_format="pandas")


def sort_rank(
    ds: ray.data.Dataset,
    value_col: str,
    id_col: str,
    descending: bool = True,
    n_buckets: int = 0,
    max_distinct: int = 1_000_000,
) -> ray.data.Dataset:
    """Global ORDER BY rank (``row_number() OVER (ORDER BY value [DESC],
    id)``), plus SQL ``ntile(n_buckets)`` when requested — WITHOUT a global
    sort: the all-to-all range exchange a ``ds.sort()`` pays is replaced by

    1. an exact (value, count) histogram (``stats._value_histogram``'s
       bounded-distinct contract — the shuffle moves distinct values, never
       rows) → per-value BASE rank = rows strictly ahead, computed driver-
       side O(#distinct) and broadcast;
    2. one few-partition hash shuffle on value co-locating ties → local
       ``cumcount`` over id order breaks them.

    rank = base[value] + tie_rank + 1 — exact, layout-independent, and the
    data itself is shuffled once by hash (no skew from sorted ranges).
    ntile replicates SQL exactly: q = n // B rows per bucket, the first
    n % B buckets take one extra.
    """
    from pdftext_ray.ops.stats import _value_histogram

    hist = _value_histogram(ds.select_columns([id_col, value_col]), value_col, max_distinct)
    # histogram is value-ascending; base rank counts rows strictly AHEAD
    values = hist["value"].to_numpy()
    counts = hist["cnt"].to_numpy()
    if descending:
        ahead = np.concatenate([[0], np.cumsum(counts[::-1])[:-1]])[::-1]
    else:
        ahead = np.concatenate([[0], np.cumsum(counts)[:-1]])
    total = int(counts.sum()) if len(counts) else 0
    base_ref = ray.put((values, ahead.astype(np.int64)))

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        vals, bases = ray.get(base_ref)
        g = g.sort_values([value_col, id_col]).reset_index(drop=True)
        tie = g.groupby(value_col, sort=False).cumcount().to_numpy()
        base = bases[np.searchsorted(vals, g[value_col].to_numpy())]
        g["rank"] = (base + tie + 1).astype("int64")
        out_cols = [id_col, value_col, "rank"]
        if n_buckets:
            q, r = divmod(total, n_buckets)
            rk0 = g["rank"].to_numpy() - 1
            cut = r * (q + 1)
            big = rk0 // (q + 1) + 1
            small = r + (rk0 - cut) // q + 1 if q else big
            g["bucket"] = np.where(rk0 < cut, big, small).astype("int64")
            out_cols.append("bucket")
        return g[out_cols]

    return by_key((ds.select_columns([id_col, value_col]), value_col), per_part)


def distinct_values(ds: ray.data.Dataset, column: str) -> ray.data.Dataset:
    """Distinct values of one column: batch-level pre-dedup (the shuffle
    carries unique values per block, not all rows) → few-partition
    co-located shuffle → vectorized drop_duplicates per partition (a
    per-distinct-value aggregate pays ~65 µs/value — the whole job at
    high cardinality)."""
    def local(batch: pa.Table) -> pa.Table:
        col = batch.column(column).unique()
        return pa.Table.from_arrays([col], names=[column])

    local_distinct = ds.select_columns([column]).map_batches(local, batch_format="pyarrow")
    return by_key((local_distinct, column), lambda g: g[[column]].drop_duplicates())


def filter_project_documents(ds: ray.data.Dataset, min_chars: int = 200) -> ray.data.Dataset:
    """Pushdown demo: vectorized filter + projection (doc_id, lang, n_chars)."""
    def fp(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        keep = batch.filter(pc.greater(batch.column("n_chars"), min_chars))
        return keep.select(["doc_id", "lang", "n_chars"])

    return ds.map_batches(fp, batch_format="pyarrow")
