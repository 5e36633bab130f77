"""Derive LiDAR-analog point tables from the driver's TPC-H-ish parquet
tables, with integer-only arithmetic that a DuckDB oracle reproduces
bit-for-bit (see __ray_entry__.oracle_sql).

lineitem -> the big "point cloud" (x, y in [0, 100), z = quantity,
plus synthesized intensity / cls / return_num / num_returns /
scan_angle for the LiDAR stat analogs).
supplier -> the small "survey sample" side for range/kNN joins.

The x/y formulas are the SQL strings in SQL_EXPR below; keep the two
in lockstep.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

# SQL fragments for the oracle — single source of truth for the docs
SQL_EXPR = {
    "x": "((l_orderkey * 37 + l_linenumber * 11) % 1000) / 10.0",
    "y": "((l_partkey * 53 + l_suppkey * 7) % 1000) / 10.0",
    "z": "l_quantity",
    "intensity": "(l_orderkey * 13 + l_partkey) % 256",
    "cls": "CASE ((l_orderkey + l_linenumber) % 3) WHEN 0 THEN 2 WHEN 1 THEN 1 ELSE 3 END",
    "num_returns": "1 + (l_suppkey % 5)",
    "return_num": "1 + ((l_orderkey + l_linenumber) % (1 + (l_suppkey % 5)))",
    "scan_angle": "(l_orderkey % 181) - 90",
    "sx": "((s_suppkey * 83 + 7) % 1000) / 10.0",
    "sy": "((s_suppkey * 101 + 3) % 1000) / 10.0",
}

LINEITEM_COLS = [
    "l_orderkey",
    "l_partkey",
    "l_suppkey",
    "l_linenumber",
    "l_quantity",
]


def derive_points_batch(t: pa.Table) -> pa.Table:
    """Vectorized point derivation — Arrow in / Arrow out, zero row loops."""
    ok = t["l_orderkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    pk = t["l_partkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    sk = t["l_suppkey"].to_numpy(zero_copy_only=False).astype(np.int64)
    ln = t["l_linenumber"].to_numpy(zero_copy_only=False).astype(np.int64)
    qty = t["l_quantity"].to_numpy(zero_copy_only=False)

    x = ((ok * 37 + ln * 11) % 1000) / 10.0
    y = ((pk * 53 + sk * 7) % 1000) / 10.0
    intensity = (ok * 13 + pk) % 256
    mod3 = (ok + ln) % 3
    cls = np.where(mod3 == 0, 2, np.where(mod3 == 1, 1, 3)).astype(np.int64)
    num_returns = 1 + (sk % 5)
    return_num = 1 + ((ok + ln) % num_returns)
    scan_angle = (ok % 181) - 90

    return pa.table(
        {
            "l_orderkey": ok,
            "l_linenumber": ln,
            "x": x,
            "y": y,
            "z": qty,
            "intensity": intensity,
            "cls": cls,
            "return_num": return_num,
            "num_returns": num_returns,
            "scan_angle": scan_angle,
        }
    )


def read_points(sf_dir: str) -> ray.data.Dataset:
    """lineitem -> point Dataset (columns pruned at the read)."""
    ds = ray.data.read_parquet(f"{sf_dir}/lineitem.parquet", columns=LINEITEM_COLS)
    return ds.map_batches(derive_points_batch, batch_format="pyarrow")


def read_samples_table(sf_dir: str) -> pa.Table:
    """supplier -> small sample table, materialized on the driver
    (broadcast side — the reference loads the full sample CSV up front,
    src/lasvalidate.cpp)."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/supplier.parquet", columns=["s_suppkey", "s_acctbal"])
    sk = t["s_suppkey"].to_numpy().astype(np.int64)
    return pa.table(
        {
            "s_suppkey": sk,
            "sx": ((sk * 83 + 7) % 1000) / 10.0,
            "sy": ((sk * 101 + 3) % 1000) / 10.0,
            "sz": t["s_acctbal"].to_numpy(zero_copy_only=False),
        }
    )


# SQL view of the derived point table — prefix every oracle query with
# `WITH pts AS ({PTS_SQL})`.
PTS_SQL = f"""
SELECT l_orderkey, l_linenumber,
       {SQL_EXPR["x"]} AS x,
       {SQL_EXPR["y"]} AS y,
       {SQL_EXPR["z"]} AS z,
       {SQL_EXPR["intensity"]} AS intensity,
       {SQL_EXPR["cls"]} AS cls,
       {SQL_EXPR["return_num"]} AS return_num,
       {SQL_EXPR["num_returns"]} AS num_returns,
       {SQL_EXPR["scan_angle"]} AS scan_angle
FROM lineitem
"""

SAMPLES_SQL = f"""
SELECT s_suppkey,
       {SQL_EXPR["sx"]} AS sx,
       {SQL_EXPR["sy"]} AS sy,
       s_acctbal AS sz
FROM supplier
"""


# ---------------------------------------------------------------------------
# events: the shared input of the keyed-temporal query family

EVENTS_COLS = ["event_id", "user_id", "event_type", "ts", "value"]


def events_prep_batch(t: pa.Table) -> pa.Table:
    """ts -> epoch-micro int64 (`ts_us`): every keyed-temporal op does
    exact integer arithmetic on timestamps (epoch micros are NOT
    float64-exact), so the cast happens once at the read."""
    return pa.table(
        {
            "event_id": t["event_id"],
            "user_id": t["user_id"],
            "event_type": t["event_type"],
            "value": t["value"],
            "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
        }
    )


def read_events(sf_dir: str) -> ray.data.Dataset:
    """events.parquet prepped once for the keyed-temporal family
    (as-of joins, window analytics, sessionization, interval ops)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=EVENTS_COLS)
    return ds.map_batches(events_prep_batch, batch_format="pyarrow")


_ROWS_CACHE: dict = {}


def table_rows(sf_dir: str, name: str) -> int:
    """Row count from the parquet footer (metadata only, no data read)
    — used to size shuffle partition counts to the data instead of a
    fixed 2x-CPU fan (stages/grouped.parts_for_rows)."""
    key = (sf_dir, name)
    n = _ROWS_CACHE.get(key)
    if n is None:
        import pyarrow.parquet as pq

        n = pq.ParquetFile(f"{sf_dir}/{name}.parquet").metadata.num_rows
        _ROWS_CACHE[key] = n
    return n
