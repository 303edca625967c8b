"""Every registered __ray_entry__ query — the driver's 50 queries() rows and
the extra_queries() displaced from that window by the round-3 merge (see
__ray_entry__.DRIVER_QUERIES) — runs against its DuckDB oracle here, with
the comparator of scripts/check_correctness.py. pytest is the extras' only
gate, and the driver rows' local one."""

from __future__ import annotations

import os
import sys

import duckdb
import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [REPO, os.path.join(REPO, "scripts")]
import check_correctness as cc  # noqa: E402

SF_DIR = "/root/testdata/sf0.01"


def _entry():
    import __ray_entry__ as entry

    return entry


@pytest.fixture(scope="module")
def duck():
    con = duckdb.connect()
    for t in cc.TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF_DIR}/{t}.parquet')"
        )
    yield con
    con.close()


def _all_queries():
    entry = _entry()
    return {**entry.queries(), **entry.extra_queries()}


@pytest.mark.parametrize("name", sorted(_all_queries()))
def test_extra_query_vs_oracle(name, ray_session, duck):
    entry = _entry()
    got = cc.to_pandas(_all_queries()[name](SF_DIR))
    oracle = {**entry.oracle_sql(), **entry.extra_oracle_sql()}.get(name)
    if oracle is None:
        # rows-only extras (similarity_ivf: recall pinned by the gate's
        # similarity_ivf_recall; the default config has no SQL equivalent)
        assert len(got) > 0
        return
    want = duck.execute(oracle).df()
    issues = cc.compare(name, got, want)
    assert not issues, f"{name}: " + "; ".join(issues)
