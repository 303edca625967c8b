"""Corpus-level statistics operators — exact distributed percentiles and
global normalization.

Both are two-phase plans built for the 100 TB shape:

* phase 1 is a tiny REDUCTION computed inside ``map_batches`` (a per-batch
  value histogram / moment triple) whose output size is bounded by the
  number of DISTINCT values (percentiles) or is O(1) (moments) — never by
  the row count;
* phase 2 broadcasts the reduced state back through a stateless vectorized
  ``map_batches`` (normalize) or finishes on the driver over a table whose
  size is the distinct-value count (percentiles).

Nothing here materializes the input: the only driver-side collection is the
reduced histogram/moments, and the op raises if the distinct-value bound is
violated rather than silently collecting a corpus.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from pdftext_ray.ops import round_half_away


def _value_histogram(ds: ray.data.Dataset, column: str, max_distinct: int) -> pd.DataFrame:
    """Exact (value, count) histogram of an integer column.

    Per-batch ``np.unique`` partials keep every block's contribution at
    distinct-value size; a few-partition hash-grouped sum (see
    relational.hash_grouped_agg's rationale — Ray's native per-key aggregate
    pays ~65 µs/key) makes partition-local counts final. The collected
    result is bounded by ``max_distinct`` — the op REFUSES to become a
    driver-side corpus collection.
    """
    from pdftext_ray.ops.relational import hash_grouped_agg

    def partial(t: pa.Table) -> pa.Table:
        vals, counts = np.unique(np.asarray(t.column(column).combine_chunks()), return_counts=True)
        return pa.table({"value": pa.array(vals, pa.int64()), "cnt": pa.array(counts, pa.int64())})

    hist = hash_grouped_agg(
        ds.map_batches(partial, batch_format="pyarrow"),
        "value",
        {"cnt": ("cnt", "sum")},
    )
    df = hist.to_pandas()
    if len(df) > max_distinct:
        raise ValueError(
            f"{column} has {len(df)} distinct values > max_distinct={max_distinct}; "
            "exact percentiles via a value histogram need a bounded value domain "
            "(use a sketch for unbounded/float domains)"
        )
    return df.sort_values("value").reset_index(drop=True)


def exact_percentiles(
    ds: ray.data.Dataset,
    column: str,
    percentiles: Iterable[float] = (0.5, 0.9, 0.99),
    max_distinct: int = 1_000_000,
) -> pa.Table:
    """EXACT discrete percentiles of an integer column at any scale.

    Matches SQL ``quantile_disc`` bit-for-bit: the selected value is the one
    at 0-based sorted index ``ceil(p*n) - 1`` (verified against DuckDB on
    asymmetric cases: n=10 p=0.99 → last element; n=7 p=0.75 → index 5).
    Returns a small driver-side table — the natural sink for an O(#distinct)
    reduction.
    """
    df = _value_histogram(ds, column, max_distinct)
    cum = df["cnt"].cumsum().to_numpy()
    n = int(cum[-1]) if len(cum) else 0
    out_p: List[float] = []
    out_v: List[int] = []
    for p in percentiles:
        if not 0.0 < p <= 1.0:
            raise ValueError(f"percentile must be in (0, 1], got {p}")
        if n == 0:
            raise ValueError("exact_percentiles over an empty dataset")
        rank = math.ceil(p * n)  # 1-based rank, same double arithmetic as SQL
        idx = int(np.searchsorted(cum, rank, side="left"))
        out_p.append(p)
        out_v.append(int(df["value"].iloc[idx]))
    return pa.table({
        "pct": pa.array(out_p, pa.float64()),
        "value": pa.array(out_v, pa.int64()),
        "n_rows": pa.array([n] * len(out_p), pa.int64()),
    })


def interp_percentiles(
    ds: ray.data.Dataset,
    column: str,
    percentiles: Iterable[float] = (0.5, 0.9, 0.99),
    max_distinct: int = 1_000_000,
) -> pa.Table:
    """EXACT continuous (interpolated) percentiles of an integer column —
    SQL ``quantile_cont`` semantics — at any scale, over the same bounded
    value-histogram reduction as exact_percentiles (the shuffle moves
    distinct values, never rows; the driver finish is O(#distinct)).

    Interpolation replicates the published quantile_cont arithmetic
    exactly: RN = p·(n−1) (0-based, double), result =
    (CRN−RN)·v[FRN] + (RN−FRN)·v[CRN] — NOT lo + frac·(hi−lo), whose
    different rounding could flip the 6-decimal comparison. Output rounded
    half-away to 6 (ops.round_half_away, the SQL rounding convention).
    """
    df = _value_histogram(ds, column, max_distinct)
    cum = df["cnt"].cumsum().to_numpy()
    n = int(cum[-1]) if len(cum) else 0
    values = df["value"].to_numpy()

    def value_at(idx0: int) -> float:
        # value at 0-based sorted-multiset index via the cumulative counts
        return float(values[int(np.searchsorted(cum, idx0 + 1, side="left"))])

    out_p: List[float] = []
    out_v: List[float] = []
    for p in percentiles:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"percentile must be in [0, 1], got {p}")
        if n == 0:
            raise ValueError("interp_percentiles over an empty dataset")
        rn = p * (n - 1)
        frn, crn = math.floor(rn), math.ceil(rn)
        if frn == crn:
            x = value_at(frn)
        else:
            x = (crn - rn) * value_at(frn) + (rn - frn) * value_at(crn)
        out_p.append(p)
        out_v.append(float(round_half_away(x, 6)))
    return pa.table({
        "pct": pa.array(out_p, pa.float64()),
        "value": pa.array(out_v, pa.float64()),
        "n_rows": pa.array([n] * len(out_p), pa.int64()),
    })


def _int_moments(ds: ray.data.Dataset, column: str) -> tuple:
    """Exact (sum, sum-of-squares, count) of an integer column.

    int64 partial sums per batch → int64 totals: EXACT regardless of
    summation order, which is what makes the derived mean/std (and the SQL
    oracle computing the same formula) bit-reproducible across layouts.
    Overflow guard: |sum x²| must stay under 2⁶³ — raises if not.
    """
    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(column).combine_chunks(), dtype=np.int64)
        if len(v) and int(np.abs(v).max()) > 3_037_000_499:  # sqrt(2^63)-ish
            raise ValueError(f"{column} values too large for exact int64 moment sums")
        return pa.table({
            "s": pa.array([int(v.sum())], pa.int64()),
            "ss": pa.array([int((v * v).sum())], pa.int64()),
            "c": pa.array([len(v)], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    # python-int reduce of the per-block partials (one row per block):
    # exact, no intermediate overflow
    s = int(parts["s"].astype(object).sum()) if len(parts) else 0
    ss = int(parts["ss"].astype(object).sum()) if len(parts) else 0
    c = int(parts["c"].sum()) if len(parts) else 0
    if not (-(2**63) < ss < 2**63 and -(2**63) < s < 2**63):
        raise ValueError(f"{column} moment sums overflow int64; shard the corpus first")
    return s, ss, c


def zscore_normalize(
    ds: ray.data.Dataset, column: str, out_col: str = "zscore", decimals: int = 6
) -> ray.data.Dataset:
    """Append the global z-score of an integer column.

    Two passes: an O(1)-output exact-moment reduction, then a stateless
    vectorized map with the scalar (mean, std) closed over — the broadcast
    is two floats, not a table. The mean/std are derived from EXACT integer
    sums with the same double-precision formula the SQL oracle uses
    (``(x - s/c) / sqrt(ss/c - (s/c)²)``), so results match bit-for-bit
    after half-away rounding (ops.round_half_away, invariant #2).
    """
    s, ss, c = _int_moments(ds, column)
    if c == 0:
        raise ValueError("zscore_normalize over an empty dataset")
    mean = s / c
    var = ss / c - mean * mean
    if var <= 0:
        raise ValueError(f"{column} has zero variance; z-scores undefined")
    std = math.sqrt(var)

    def norm(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(column).combine_chunks(), dtype=np.float64)
        z = round_half_away((v - mean) / std, decimals)
        return t.append_column(out_col, pa.array(z, pa.float64()))

    return ds.map_batches(norm, batch_format="pyarrow")


def grouped_percentiles(
    ds: ray.data.Dataset,
    group_col: str,
    value_col: str,
    percentiles: Iterable[float] = (0.5, 0.9),
    max_distinct: int = 1_000_000,
) -> ray.data.Dataset:
    """Per-group exact discrete percentiles (same ceil(p*n) rank rule).

    One few-partition hash shuffle on the group key; each partition computes
    its groups' percentiles from a LOCAL sorted value-count fold — the
    shuffle payload is the (group, value, count) histogram built per batch,
    bounded by distinct (group, value) pairs per block, not rows.
    """
    from pdftext_ray.ops.exchange import by_key

    pcts = [float(p) for p in percentiles]
    if any(not 0.0 < p <= 1.0 for p in pcts):
        raise ValueError(f"percentiles must be in (0, 1], got {pcts}")

    def partial(t: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "g": np.asarray(t.column(group_col).combine_chunks()),
            "value": np.asarray(t.column(value_col).combine_chunks(), dtype=np.int64),
        })
        agg = df.groupby(["g", "value"], as_index=False).size()
        if len(agg) > max_distinct:
            raise ValueError(f"per-block histogram exceeds max_distinct={max_distinct}")
        return pa.table({
            # explicit type: an empty block must not infer null (invariant 12)
            group_col: pa.array(agg["g"].tolist(), t.schema.field(group_col).type),
            "value": pa.array(agg["value"].to_numpy(), pa.int64()),
            "cnt": pa.array(agg["size"].to_numpy(), pa.int64()),
        })

    def per_part(g: pd.DataFrame) -> pd.DataFrame:
        # merge per-block partial counts, then rank per group
        h = g.groupby([group_col, "value"], as_index=False)["cnt"].sum()
        h = h.sort_values([group_col, "value"])
        out = {group_col: [], "pct": [], "value": [], "n_rows": []}
        for key, sub in h.groupby(group_col, sort=True):
            cum = sub["cnt"].cumsum().to_numpy()
            n = int(cum[-1])
            for p in pcts:
                idx = int(np.searchsorted(cum, math.ceil(p * n), side="left"))
                out[group_col].append(key)
                out["pct"].append(p)
                out["value"].append(int(sub["value"].iloc[idx]))
                out["n_rows"].append(n)
        return pd.DataFrame(out)

    return by_key((ds.map_batches(partial, batch_format="pyarrow"), group_col), per_part)


def sample_quantiles(
    ds: ray.data.Dataset,
    value_col: str,
    key_col: str = "doc_id",
    percentiles: Iterable[float] = (0.5, 0.9, 0.99),
    sample_size: int = 256,
    seed: int = 17,
) -> pa.Table:
    """Approximate quantiles from a BOTTOM-K uniform sample — the mergeable
    sketch for UNBOUNDED value domains where ``exact_percentiles``'s
    distinct-value histogram can't apply.

    The sketch is the k smallest key-hash rows (the KMV / bottom-k design
    behind Theta sketches): a uniform sample without replacement that is a
    pure function of the key set — layout-independent, retry-safe, and
    mergeable by "union then re-take bottom-k", with rank error O(1/√k).
    Unlike KLL/GK compaction (whose state depends on arrival order), bottom-k
    gives bit-identical output on any block layout AND is SQL-expressible
    (ORDER BY hash LIMIT k), so the gate checks it exactly.

    Plan: one vectorized ``map_batches`` emits each block's local bottom-k
    (≤ k rows per block move), a small ``sort().limit(k)`` merges, and the
    quantile ranks are read off the k-row sample on the driver with the same
    ``ceil(p·n)`` rule as ``exact_percentiles`` (matches SQL quantile_disc).
    Output: (pct, value, sample_n).
    """
    from pdftext_ray.ops.sampling import _key_hash32

    pcts = [float(p) for p in percentiles]
    if any(not 0.0 < p <= 1.0 for p in pcts):
        raise ValueError(f"percentiles must be in (0, 1], got {pcts}")
    if sample_size <= 0:
        raise ValueError(f"sample_size must be positive, got {sample_size}")

    def local_bottomk(t: pa.Table) -> pa.Table:
        keys = t.column(key_col).combine_chunks()
        h = _key_hash32(keys, seed)
        take = min(sample_size, len(h))
        idx = np.lexsort((np.asarray(keys), h))[:take]
        sel = pa.array(idx, pa.int64())
        vals = np.asarray(t.column(value_col).combine_chunks(), dtype=np.int64)
        return pa.table({
            "_h": pa.array(h[idx], pa.int64()),
            key_col: keys.take(sel),
            "value": pa.array(vals[idx], pa.int64()),
        })

    sample = (
        ds.select_columns([key_col, value_col])
        .map_batches(local_bottomk, batch_format="pyarrow")
        .sort(["_h", key_col])
        .limit(sample_size)
        .take_all()
    )
    vals = np.sort(np.array([r["value"] for r in sample], dtype=np.int64))
    n = len(vals)
    if n == 0:
        raise ValueError("sample_quantiles over an empty dataset")
    out_p: List[float] = []
    out_v: List[int] = []
    for p in pcts:
        out_p.append(p)
        out_v.append(int(vals[math.ceil(p * n) - 1]))
    return pa.table({
        "pct": pa.array(out_p, pa.float64()),
        "value": pa.array(out_v, pa.int64()),
        "sample_n": pa.array([n] * len(out_p), pa.int64()),
    })


# ---------------------------------------------------------------------------
# HyperLogLog approximate distinct count
# ---------------------------------------------------------------------------

_SM1 = np.uint64(0x9E3779B97F4A7C15)
_SM2 = np.uint64(0xBF58476D1CE4E5B9)
_SM3 = np.uint64(0x94D049BB133111EB)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 over uint64 — the shared deterministic hash
    boundary between the Ray op and the scalar golden (like the media
    FakeCodec: the hash IS the algorithm, so it is common by design)."""
    z = (x + _SM1).astype(np.uint64)
    z = (z ^ (z >> np.uint64(30))) * _SM2
    z = (z ^ (z >> np.uint64(27))) * _SM3
    return z ^ (z >> np.uint64(31))


def _clz64(x: np.ndarray) -> np.ndarray:
    """Exact vectorized count-leading-zeros (no float log2 — inexact near
    powers of two). x == 0 → 64."""
    x = x.copy()
    n = np.zeros(x.shape, dtype=np.int64)
    for s in (32, 16, 8, 4, 2, 1):
        mask = (x >> np.uint64(64 - s)) == 0
        n[mask] += s
        x[mask] = (x[mask] << np.uint64(s)).astype(np.uint64)
    return n


def hll_estimate_from_registers(reg: np.ndarray) -> float:
    """Canonical HLL estimator (Flajolet et al. 2007) with the small-range
    linear-counting correction; register-order-deterministic float math."""
    m = float(len(reg))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    s = float(np.sum(2.0 ** -reg.astype(np.float64)))
    est = alpha * m * m / s
    zeros = int(np.count_nonzero(reg == 0))
    if est <= 2.5 * m and zeros > 0:
        est = m * math.log(m / zeros)
    return est


def _hll_hash_column(col) -> np.ndarray:
    """uint64 hashes for an Arrow column — the ONE hash boundary shared
    with the scalar golden (splitmix64 for ints, blake2b-8 over str() for
    everything else). Extracted so approx_distinct,
    grouped_approx_distinct and describe_table cannot desynchronize."""
    if pa.types.is_integer(col.type):
        return _splitmix64(np.asarray(col).astype(np.uint64))
    import hashlib

    return np.fromiter(
        (
            int.from_bytes(
                hashlib.blake2b(str(v).encode("utf-8"), digest_size=8).digest(), "big"
            )
            for v in col.to_pylist()
        ),
        dtype=np.uint64,
        count=len(col),
    )


def _registers_from_hashes(h: np.ndarray, p: int) -> np.ndarray:
    """2^p HLL registers from uint64 hashes (max leading-zero runs)."""
    reg = np.zeros(1 << p, dtype=np.uint8)
    if len(h):
        idx = (h >> np.uint64(64 - p)).astype(np.int64)
        w = (h << np.uint64(p)).astype(np.uint64)
        rho = np.minimum(_clz64(w), 64 - p) + 1
        np.maximum.at(reg, idx, rho.astype(np.uint8))
    return reg


def approx_distinct(
    ds: ray.data.Dataset, column: str, p: int = 10
) -> ray.data.Dataset:
    """HyperLogLog approximate COUNT(DISTINCT column) → one row
    (approx_n double, rounded to 3). Standard error ≈ 1.04/√(2^p).

    The sketch is the whole point at corpus scale: per batch, values hash
    (splitmix64 for ints, blake2b-8 for strings) into 2^p registers holding
    max leading-zero runs; registers MERGE by elementwise max — commutative
    and idempotent, so the estimate is independent of block layout, task
    order, and retries (exact distinct needs a full shuffle; this needs
    2^p bytes per block → driver). The scalar golden recomputes the same
    registers value-by-value with int.bit_length."""
    m = 1 << p

    def sketch(t: pa.Table) -> pa.Table:
        reg = _registers_from_hashes(_hll_hash_column(t.column(column)), p)
        return pa.table({"reg": pa.array([reg.tobytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow").take_all()
    reg = np.zeros(m, dtype=np.uint8)
    for r in parts:
        reg = np.maximum(reg, np.frombuffer(r["reg"], dtype=np.uint8))
    est = round_half_away(hll_estimate_from_registers(reg), 3)
    return ray.data.from_arrow(
        pa.table({"approx_n": pa.array([float(est)], pa.float64())})
    )


def describe_table(
    ds: ray.data.Dataset,
    columns,
    p: int = 10,
) -> pa.Table:
    """Table profile — one row per column: (column, dtype, n, n_null,
    min_str, max_str, approx_distinct). The ingest-QA pass a corpus
    pipeline runs before anything else.

    One stateless pass: each block emits per-column partials (count, null
    count, min, max, HLL registers — all MERGEABLE: sums, min/max, register
    max), combined driver-side at #cols · 2^p bytes per block; the
    accumulator is SEEDED from the dataset schema, so an empty input (Ray
    never invokes the UDF on zero-row blocks) returns honest n=0 rows
    instead of crashing. min/max are STRINGIFIED with Python str() — exact
    for int/string columns (DuckDB's VARCHAR cast agrees); float formatting
    is engine-specific, so float columns are profiled but their
    min_str/max_str are outside the cross-engine contract (documented, not
    hidden). Profiling contract covers int (signed or unsigned), float and
    string columns — bool/nested types REFUSE loudly (their hash/stringify
    conventions are undefined vs the golden).
    """
    from pdftext_ray.ops.joins import _arrow_types

    cols = list(columns)
    # _arrow_types normalizes pandas-backed block schemas (numpy dtypes) to
    # Arrow types — raw base_schema.types would crash pa.types.is_integer
    types = _arrow_types(ds)
    for c in cols:
        t = types.get(c)
        if t is None:
            raise ValueError(f"describe_table: dataset has no column {c!r}")
        if not (pa.types.is_integer(t) or pa.types.is_floating(t)
                or pa.types.is_string(t) or pa.types.is_large_string(t)):
            raise TypeError(
                f"describe_table supports int/float/string columns; {c!r} is {t} "
                "(bool/nested hash+stringify conventions are undefined vs the golden)"
            )

    def partial(t: pa.Table) -> pa.Table:
        names, dtypes, ns, nulls, mins, maxs, regs = [], [], [], [], [], [], []
        for c in cols:
            col = t.column(c)
            valid = col.drop_null()
            names.append(c)
            dtypes.append(str(col.type))
            ns.append(len(col))
            nulls.append(col.null_count)
            vals = valid.to_pylist()
            mins.append(str(min(vals)) if vals else None)
            maxs.append(str(max(vals)) if vals else None)
            regs.append(_registers_from_hashes(_hll_hash_column(valid), p).tobytes())
        return pa.table({
            "column": pa.array(names, pa.string()),
            "dtype": pa.array(dtypes, pa.string()),
            "n": pa.array(ns, pa.int64()),
            "n_null": pa.array(nulls, pa.int64()),
            "min_s": pa.array(mins, pa.string()),
            "max_s": pa.array(maxs, pa.string()),
            "reg": pa.array(regs, pa.binary()),
        })

    # merge min/max on PARSED values (picked from the ARROW type object, so
    # uint columns parse as int too — a dtype-string prefix check would
    # lexicographic-compare them: "100" < "99"); str() round-trips doubles
    # exactly (repr), so float parse is lossless
    def _parser(t):
        if pa.types.is_integer(t):
            return int
        if pa.types.is_floating(t):
            return float
        return str

    acc = {
        c: {"dtype": str(types[c]), "parse": _parser(types[c]), "n": 0, "n_null": 0,
            "min": None, "max": None, "reg": np.zeros(1 << p, dtype=np.uint8)}
        for c in cols
    }
    for part in ds.map_batches(partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        for r in part.to_pylist():
            a = acc[r["column"]]
            a["n"] += r["n"]
            a["n_null"] += r["n_null"]
            parse = a["parse"]
            for k, pick in (("min", min), ("max", max)):
                v = r[f"{k}_s"]
                if v is not None:
                    a[k] = v if a[k] is None else str(pick(parse(a[k]), parse(v)))
            a["reg"] = np.maximum(a["reg"], np.frombuffer(r["reg"], dtype=np.uint8))
    rows = []
    for c in cols:
        a = acc[c]
        rows.append((
            c, a["dtype"], a["n"], a["n_null"], a["min"], a["max"],
            float(round_half_away(hll_estimate_from_registers(a["reg"]), 3)),
        ))
    return pa.table({
        "column": pa.array([r[0] for r in rows], pa.string()),
        "dtype": pa.array([r[1] for r in rows], pa.string()),
        "n": pa.array([r[2] for r in rows], pa.int64()),
        "n_null": pa.array([r[3] for r in rows], pa.int64()),
        "min_str": pa.array([r[4] for r in rows], pa.string()),
        "max_str": pa.array([r[5] for r in rows], pa.string()),
        "approx_distinct": pa.array([r[6] for r in rows], pa.float64()),
    })


def exact_corr(
    ds: ray.data.Dataset,
    x_col: str,
    y_col: str,
    decimals: int = 2,
) -> ray.data.Dataset:
    """Pearson correlation from EXACT integer moments: both columns scale
    to ints (10^decimals — the inputs are fixed-decimal by contract), each
    block emits one (n, Σx, Σy, Σx², Σy², Σxy) int64 partial row, and the
    driver combines in arbitrary-precision Python ints before ONE float
    conversion — so the result is layout-independent to the last bit and a
    HUGEINT SQL oracle reproduces it exactly (int→double, sqrt and divide
    are all IEEE correctly-rounded; float ACCUMULATION, which is not, never
    happens on either side — the reason not to use SQL's own corr()).

    Caller contract: per-row scaled |x·y| ≤ ~10⁹ keeps a 2³¹-row block's
    int64 partials safe; the final combine is overflow-free (Python ints).
    Output: n, corr (round 6).
    """
    import math

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(
            round_half_away(np.asarray(t.column(x_col).combine_chunks(), dtype=np.float64) * 10**decimals, 0),
            dtype=np.int64,
        )
        y = np.asarray(
            round_half_away(np.asarray(t.column(y_col).combine_chunks(), dtype=np.float64) * 10**decimals, 0),
            dtype=np.int64,
        )
        return pa.table({
            "n": pa.array([len(x)], pa.int64()),
            "sx": pa.array([int(x.sum())], pa.int64()),
            "sy": pa.array([int(y.sum())], pa.int64()),
            "sxx": pa.array([int((x * x).sum())], pa.int64()),
            "syy": pa.array([int((y * y).sum())], pa.int64()),
            "sxy": pa.array([int((x * y).sum())], pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    n = int(parts["n"].sum())
    sx, sy = int(parts["sx"].sum()), int(parts["sy"].sum())
    sxx, syy, sxy = int(parts["sxx"].sum()), int(parts["syy"].sum()), int(parts["sxy"].sum())
    num = n * sxy - sx * sy
    dx = n * sxx - sx * sx
    dy = n * syy - sy * sy
    if dx == 0 or dy == 0:
        raise ValueError("exact_corr: zero variance in an input column")
    corr = float(num) / (math.sqrt(float(dx)) * math.sqrt(float(dy)))
    return ray.data.from_arrow(pa.table({
        "n": pa.array([n], pa.int64()),
        "corr": pa.array([float(round_half_away(corr, 6))], pa.float64()),
    }))


def histogram_buckets(
    ds: ray.data.Dataset,
    column: str,
    n_buckets: int = 10,
) -> ray.data.Dataset:
    """Equal-width histogram of an integer column: two O(1)-result passes —
    (min, max) by per-block partials, then per-block ``np.bincount`` over
    ``bucket = min(floor((v−lo)·n/(hi−lo)), n−1)`` merged with one tiny
    grouped sum. Bucket math uses the SAME integer-expression double
    arithmetic as the SQL oracle ((v−lo)·n as exact ints, one division),
    so edge values land identically. Empty buckets are emitted (count 0) —
    the histogram shape is part of the contract. Output: bucket, lo, hi,
    count.
    """
    from ray.data.aggregate import Max, Min

    agg = ds.aggregate(Min(column), Max(column))
    if agg is None or agg.get(f"min({column})") is None:
        raise ValueError("histogram_buckets over an empty dataset")
    lo, hi = int(agg[f"min({column})"]), int(agg[f"max({column})"])
    span = hi - lo

    def partial(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column(column).combine_chunks()).astype(np.int64)
        if span == 0:
            b = np.zeros(len(v), dtype=np.int64)
        else:
            b = np.minimum(((v - lo) * n_buckets / span).astype(np.int64), n_buckets - 1)
        counts = np.bincount(b, minlength=n_buckets)
        return pa.table({
            "bucket": pa.array(np.arange(n_buckets), pa.int64()),
            "n": pa.array(counts, pa.int64()),
        })

    parts = ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    totals = parts.groupby("bucket", as_index=False)["n"].sum().sort_values("bucket")
    edges_lo = [
        float(round_half_away(lo + b * span / n_buckets, 6)) for b in range(n_buckets)
    ]
    edges_hi = [
        float(round_half_away(lo + (b + 1) * span / n_buckets, 6)) for b in range(n_buckets)
    ]
    return ray.data.from_arrow(pa.table({
        "bucket": pa.array(totals["bucket"].to_numpy(), pa.int64()),
        "lo": pa.array(edges_lo, pa.float64()),
        "hi": pa.array(edges_hi, pa.float64()),
        "n": pa.array(totals["n"].to_numpy(), pa.int64()),
    }))


def grouped_approx_distinct(
    ds: ray.data.Dataset, group_col: str, column: str, p: int = 10
) -> ray.data.Dataset:
    """Per-group HyperLogLog approximate COUNT(DISTINCT column) — the
    mergeable-sketch-per-key pattern: each block emits one 2^p-byte
    register row PER GROUP PRESENT (never values), one few-partition hash
    shuffle co-locates each group's sketches, and the partition-local
    elementwise-max merge + estimate is final. What crosses the wire is
    #groups·2^p bytes per block — independent of row count, the reason to
    sketch instead of an exact per-group distinct shuffle. Merge is
    commutative/idempotent → layout- and retry-independent (the same
    contract as approx_distinct). Output: (group, approx_n rounded 3).
    """
    from pdftext_ray.ops.exchange import by_key

    m = 1 << p

    def sketch(t: pa.Table) -> pa.Table:
        h = _hll_hash_column(t.column(column))
        groups = t.column(group_col).to_numpy(zero_copy_only=False)
        out_g: list = []
        out_reg: list = []
        for g in np.unique(groups):
            out_g.append(g)
            out_reg.append(_registers_from_hashes(h[groups == g], p).tobytes())
        return pa.table({
            group_col: pa.array(out_g, t.column(group_col).type),
            "reg": pa.array(out_reg, pa.binary()),
        })

    def merge_part(g: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for grp, sub in g.groupby(group_col, sort=True):
            reg = np.zeros(m, dtype=np.uint8)
            for blob in sub["reg"]:
                reg = np.maximum(reg, np.frombuffer(blob, dtype=np.uint8))
            rows.append((grp, float(round_half_away(hll_estimate_from_registers(reg), 3))))
        return pd.DataFrame(rows, columns=[group_col, "approx_n"])

    return by_key((ds.map_batches(sketch, batch_format="pyarrow"), group_col), merge_part)


# ---------------------------------------------------------------------------
# Count-min sketch heavy hitters
# ---------------------------------------------------------------------------

def _cms_hash_rows(h: np.ndarray, depth: int, width: int) -> np.ndarray:
    """(depth, n) column indices from one 64-bit hash per value: row j uses
    an independent splitmix64 round seeded by j (double hashing is fine for
    CMS; full re-mix keeps rows decorrelated)."""
    idx = np.empty((depth, len(h)), dtype=np.int64)
    for j in range(depth):
        idx[j] = (_splitmix64(h + np.uint64(j * 0x9E3779B9)) % np.uint64(width)).astype(np.int64)
    return idx


def cms_heavy_hitters(
    ds: ray.data.Dataset,
    column: str,
    threshold: int,
    depth: int = 4,
    width: int = 2048,
) -> ray.data.Dataset:
    """Count-min-sketch heavy hitters: values whose estimated count ≥
    threshold, with their CMS estimates. Output: (value, est_count), est ≥
    true count always (one-sided error ≤ 2n/width per row, min over rows).

    Two streaming passes, both layout-independent: pass 1 builds the
    depth×width COUNT matrix per block (counter ADDITION is commutative, so
    the merged sketch — unlike per-batch top-M candidate lists — does not
    depend on batching); pass 2 re-scans values, probes the broadcast
    sketch, and emits the distinct values passing the threshold (exact
    membership, deterministic). The sketch is the scale story: the state is
    depth×width ints regardless of cardinality; the candidate re-scan
    replaces the driver-side candidate lists that break determinism."""
    import ray

    def sketch(t: pa.Table) -> pa.Table:
        col = t.column(column)
        if pa.types.is_integer(col.type):
            h = _splitmix64(np.asarray(col).astype(np.uint64))
        else:
            import hashlib

            h = np.fromiter(
                (
                    int.from_bytes(
                        hashlib.blake2b(str(v).encode("utf-8"), digest_size=8).digest(), "big"
                    )
                    for v in col.to_pylist()
                ),
                dtype=np.uint64,
                count=len(col),
            )
        mat = np.zeros((depth, width), dtype=np.int64)
        if len(h):
            idx = _cms_hash_rows(h, depth, width)
            for j in range(depth):
                np.add.at(mat[j], idx[j], 1)
        return pa.table({"cms": pa.array([mat.tobytes()], pa.binary())})

    parts = ds.map_batches(sketch, batch_format="pyarrow").take_all()
    mat = np.zeros((depth, width), dtype=np.int64)
    for r in parts:
        mat += np.frombuffer(r["cms"], dtype=np.int64).reshape(depth, width)
    ref = ray.put(mat)

    def probe(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        col = t.column(column)
        vals = col.to_pylist()
        if not vals:
            return pa.table({"value": pa.array([], col.type),
                             "est_count": pa.array([], pa.int64())})
        if pa.types.is_integer(col.type):
            h = _splitmix64(np.asarray(col).astype(np.uint64))
        else:
            import hashlib

            h = np.fromiter(
                (
                    int.from_bytes(
                        hashlib.blake2b(str(v).encode("utf-8"), digest_size=8).digest(), "big"
                    )
                    for v in vals
                ),
                dtype=np.uint64,
                count=len(vals),
            )
        idx = _cms_hash_rows(h, depth, width)
        est = m[0, idx[0]]
        for j in range(1, depth):
            est = np.minimum(est, m[j, idx[j]])
        keep = est >= threshold
        out = pa.table({"value": pa.array([v for v, k in zip(vals, keep) if k], col.type),
                        "est_count": pa.array(est[keep], pa.int64())})
        return out

    hits = ds.map_batches(probe, batch_format="pyarrow")
    # distinct (value, est_count) — est is a pure function of value, so
    # first-seen per value == every occurrence; a small grouped max dedups
    from ray.data.aggregate import Max

    return hits.groupby("value").aggregate(Max("est_count", alias_name="est_count"))
