"""grouped_map — the engine's workhorse for high-cardinality grouped
computation.

Ray's GroupedData.map_groups / aggregate reduce paths invoke Python
once per GROUP (measured ~1-2 ms per key: 50k keys ≈ 1.8 s even at 64
blocks / 32 cpus), which collapses for cell/phash/user-cardinality
keys.  The scalable shape used here:

    1. add part = hash64(key columns) % P          (vectorized)
    2. groupby("part").map_groups(vectorized_fn)   (ONE sort shuffle)

Every row of a key lands in exactly one part, so `fn` receives whole
partitions and processes ALL of that part's groups at once with
pandas/numpy groupby — Python dispatch happens P times, not n_keys
times.  Ray 2.49's repartition(keys=...) + map_batches(batch_size=None)
would express this directly but needs the HASH_SHUFFLE strategy, and
on a 1-CPU node (600k rows, P=16) its 16 aggregator actors held 2 CPUs
and it had not finished in 900 s, against 1.9 s for this sort shuffle.

PARTITIONING ASSUMPTION (north_rule): one part must fit in a worker's
heap. Size P ≈ total_rows x row_width / target_part_bytes;
salted_grouped_map salts the keys that alone exceed one part's share.
"""

from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..kernels.text import stable_hash64_array

_MIX = np.uint64(0x9E3779B97F4A7C15)


def _mix64(h: np.ndarray) -> np.ndarray:
    h = h.astype(np.uint64)
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
    return h


def hash_columns(t: pa.Table, keys: list[str]) -> np.ndarray:
    """Deterministic uint64 hash of one or more key columns."""
    h = np.zeros(len(t), dtype=np.uint64)
    with np.errstate(over="ignore"):
        for k in keys:
            col = t[k]
            typ = col.type
            if pa.types.is_string(typ) or pa.types.is_large_string(typ):
                hk = stable_hash64_array(col)
            else:
                hk = _mix64(col.to_numpy(zero_copy_only=False).astype(np.uint64))
            h = h * _MIX + hk
    return h


def hash_parts(t: pa.Table, keys: list[str], num_parts: int) -> np.ndarray:
    """The partition rule: each row's part in [0, num_parts) as int64,
    hash_columns(keys) % num_parts."""
    return (hash_columns(t, keys) % np.uint64(num_parts)).astype(np.int64)


def cluster_cpus() -> int | None:
    """CPUs of the connected Ray cluster (8 when it reports none), or
    None before ray.init: how many tasks one wave can run."""
    import ray

    if not ray.is_initialized():
        return None
    return int(ray.cluster_resources().get("CPU", 8))


def default_num_parts() -> int:
    cpus = cluster_cpus()
    return 32 if cpus is None else max(16, 2 * cpus)


def parts_for_rows(
    n_rows: int, rows_per_part: int = 50_000, min_parts: int = 8
) -> int:
    """Data-proportional shuffle width: ceil(rows / rows_per_part),
    floored at min_parts. The fixed 2x-CPU default (default_num_parts)
    is right when every partition holds real work, but a small keyed
    exchange (the 100k-row events family) pays the full 64-partition
    task fan for ~1.5k rows per task — measured 1.4-1.8x slower than
    an 8-16 partition exchange on the same input. At 100-TB scale the
    same rule yields rows/rows_per_part partitions, which is the
    memory bound that matters (each partition must fit a worker's
    heap); callers size rows_per_part to the op's per-row width."""
    return max(int(min_parts), -(-int(n_rows) // int(rows_per_part)))


def parts_for_tiles(
    H: int, W: int, tile: int, tiles_per_part: int = 64, min_parts: int = 8
) -> int:
    """Data-proportional width for the raster tile exchanges:
    ceil(#tiles / tiles_per_part), floored at min_parts. At fixture
    sizes this equals the old fixed 8; a 100k x 100k raster at
    tile=16 yields ~610k tiles -> ~9.5k partitions of 64 tiles
    (~64 x tile^2 x 8 B = 131 KB of payload each plus halos), which is
    the memory bound that matters at cluster scale."""
    ntiles = (-(-int(H) // int(tile))) * (-(-int(W) // int(tile)))
    return max(int(min_parts), -(-ntiles // int(tiles_per_part)))


def grouped_map(
    ds: ray.data.Dataset,
    keys: list[str],
    fn: Callable,
    *,
    num_parts: int | None = None,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """One shuffle, vectorized per-partition apply.

    `fn` takes a whole partition (pandas DataFrame or pyarrow Table per
    `batch_format`) holding EVERY group of that partition and must
    reduce/transform them vectorized (df.groupby(keys).agg / np.unique
    / pc.sort_indices).

    Fragmented input is coalesced first, and only fragmented input.
    The sort shuffle costs a task per input block, so the block count
    its exchange will see is read from the plan
    (`initial_num_blocks()`, which walks 1:1 maps and filters back to
    the source: a materialized input's block count, a read's task
    count). When it is unknown or above 2*P, `repartition(P)` merges
    the input down to P blocks first: a lazy map over 256 tiny blocks
    (517k rows, P=16, one CPU) took 35 s uncoalesced against 4.5 s
    coalesced. At or below 2*P the repartition is a second all-to-all
    barrier for nothing: skipping it halved the one-CPU benchmark
    rounds (LiDAR grid+zonal 15.2-17.2 s -> 7.3-9.0 s, flagship with
    checkpoint 16.7-20.7 s -> 8.3-10.9 s). The plan cannot see a
    one-file read_parquet split by override_num_blocks=N (it reports
    1 block and emits N), so keep such N <= 2*P. At larger data sizes
    num_parts should be sized so a part stays under the target block
    size.
    """
    P = num_parts or default_num_parts()

    # A groupby().map_groups() output (this function's own, say)
    # reports its input's block count here, not P; the sort shuffle
    # does emit one block per input block, so the count holds.
    n_blocks = ds._plan.initial_num_blocks()
    if n_blocks is None or n_blocks > 2 * P:
        ds = ds.repartition(P)

    def add_part(t: pa.Table) -> pa.Table:
        return t.append_column("_part", pa.array(hash_parts(t, keys, P)))

    if batch_format == "pyarrow":

        def apply_arrow(g: pa.Table) -> pa.Table:
            return fn(g.drop_columns(["_part"]))

        apply = apply_arrow
    else:

        def apply_pandas(g: pd.DataFrame) -> pd.DataFrame:
            return fn(g.drop(columns=["_part"]))

        apply = apply_pandas

    return (
        ds.map_batches(add_part, batch_format="pyarrow")
        .groupby("_part")
        .map_groups(apply, batch_format=batch_format)
    )


def key_runs(t: pa.Table, keys: list[str], value_col: str = "v"):
    """The one way a partition is cut into groups: rows of `t` stably
    sorted by `keys` (np.lexsort; over one key it is the stable
    argsort) and cut where any key changes -> (each run's keys, value
    offsets, float64 `value_col` values, run lengths): run i's values
    are values[off[i]:off[i+1]], in row order. With a "keep" column
    the values hold only the kept rows, so a run's value slice may be
    empty while its length counts every row."""
    ks = [t[k].to_numpy(zero_copy_only=False) for k in keys]
    order = np.lexsort(ks[::-1])
    ks = [k[order] for k in ks]
    new = np.zeros(len(order), dtype=bool)  # row starts a run
    new[:1] = True
    for k in ks:
        new[1:] |= k[1:] != k[:-1]
    heads = np.flatnonzero(new)
    bounds = off = np.append(heads, len(order))
    vs = np.asarray(t[value_col].to_numpy(zero_copy_only=False), dtype=np.float64)[order]
    if "keep" in t.column_names:
        kept = t["keep"].to_numpy(zero_copy_only=False)[order].astype(bool)
        off, vs = np.append(0, np.cumsum(kept))[bounds], vs[kept]
    return [k[heads] for k in ks], off, vs, np.diff(bounds)


def _first_row(t: pa.Table) -> pa.Table:
    return t.slice(0, 1)


def warm_up(parquet_file: str) -> None:
    """Run one small parquet file through one grouped_map, to
    completion. The first Ray Data pipeline of a session starts Ray
    Data's actors and parquet reader and imports the engine in the
    workers; a harness that times queries one by one calls this
    first, so that cost is not charged to whichever query runs first
    (sf0.01 `grid_count`: 5.9 s cold, 0.9 s after this; a warm-up
    without the read left 3.0 s)."""
    import pyarrow.parquet as pq

    key = pq.read_schema(parquet_file).names[:1]
    grouped_map(
        ray.data.read_parquet(parquet_file), key, _first_row, num_parts=2,
        batch_format="pyarrow",
    ).materialize()


# Width of the skew probe's histogram. A hot key's bucket holds at
# least the key's rows, so bucket flags are a superset of the hot keys;
# 4096 buckets keep that superset tight while distinct keys << 4096 x P.
N_BUCKETS = 4096


def detect_hot_buckets(
    ds: ray.data.Dataset,
    keys: list[str],
    num_parts: int | None = None,
) -> tuple[int, np.ndarray]:
    """The engine's skew probe: one pass over `ds`, no shuffle.

    A key is hot when it alone holds more than one partition's fair
    share of the exchange: count > total_rows / P, with P = num_parts
    (default_num_parts() when None). Skew is a key's share of one
    reducer's input, not a fixed global fraction (FP-Hadoop, VLDB 2015).

    Per block: bincount of hash_columns % N_BUCKETS over EVERY row
    (the hash already touches every row, so sampling would save only
    the bincount and would make the answer depend on block layout); a
    combine level sums ~64 block histograms per task so the driver
    receives O(blocks/64) fixed-size rows (streamed, never held).
    Returns (N_BUCKETS, hot_bucket_ids).

    Cold keys sharing a hot key's bucket get salted too, which is
    harmless — salting a cold key just splits an already-small group
    (salted output is identical by contract, see test_salting.py)."""
    P = num_parts or default_num_parts()

    def hist(t: pa.Table) -> dict:
        b = hash_parts(t, keys, N_BUCKETS)
        counts = np.bincount(b, minlength=N_BUCKETS).astype(np.int64)
        return {"h": counts.reshape(1, N_BUCKETS)}

    def combine(b: dict) -> dict:
        return {"h": b["h"].sum(axis=0, dtype=np.int64).reshape(1, N_BUCKETS)}

    parts = ds.map_batches(
        hist, batch_format="pyarrow", batch_size=None
    ).map_batches(combine, batch_format="numpy", batch_size=64)
    total_h = np.zeros(N_BUCKETS, dtype=np.int64)
    for b in parts.iter_batches(batch_format="numpy", batch_size=256):
        total_h += b["h"].sum(axis=0, dtype=np.int64)
    # integer form of count > total / P
    hot = np.nonzero(total_h * P > int(total_h.sum()))[0]
    return N_BUCKETS, hot.astype(np.int64)


def salted_grouped_map(
    ds: ray.data.Dataset,
    keys: list[str],
    partial_fn: Callable,
    merge_fn: Callable,
    *,
    num_parts: int | None = None,
    batch_format: str = "pandas",
) -> ray.data.Dataset:
    """Skew-salted two-phase grouped computation (north_rule).

    detect_hot_buckets probes `ds` at this exchange's width P. Rows of
    a flagged bucket get a `_salt` column cycling 0..k-1 with
    k = max(8, P // 2), so a 10^5x hot key splits across k phase-1
    partitions; phase 1 runs `partial_fn` per partition grouping by
    keys + ['_salt'], phase 2 runs `merge_fn` per partition grouping by
    keys over the (<= k per key) partial rows.  Both fns receive whole
    partitions (grouped_map contract).  partial_fn must emit rows that
    merge_fn can combine into the same result the unsalted computation
    would produce (associative partials: min/first for dedup; exact
    order statistics carry each (key, salt) run as a list<double> row).

    `ds` is materialized once, so the probe and the exchange share its
    blocks (the upstream runs once) and grouped_map sees an exact
    block count.

    With no hot keys the two fns compose in ONE grouped_map (single
    shuffle — the common, unskewed case pays only the probe; the
    `_salt` column the fns expect is injected inside the fused apply,
    not as a separate pass over the data)."""
    P = num_parts or default_num_parts()
    ds = ds.materialize()
    n_buckets, hot = detect_hot_buckets(ds, keys, num_parts=P)
    if not len(hot):

        def both_pd(df: pd.DataFrame) -> pd.DataFrame:
            df["_salt"] = np.int64(0)
            return merge_fn(partial_fn(df))

        def both_pa(t: pa.Table) -> pa.Table:
            t = t.append_column(
                "_salt", pa.array(np.zeros(len(t), dtype=np.int64))
            )
            return merge_fn(partial_fn(t))

        both = both_pa if batch_format == "pyarrow" else both_pd
        return grouped_map(ds, keys, both, num_parts=P, batch_format=batch_format)

    k = max(8, P // 2)

    def add_salt(t: pa.Table) -> pa.Table:
        b = hash_parts(t, keys, n_buckets)
        pos = np.minimum(np.searchsorted(hot, b), len(hot) - 1)
        m = hot[pos] == b
        salt = np.zeros(len(t), dtype=np.int64)
        if m.any():
            salt[m] = np.arange(int(m.sum()), dtype=np.int64) % k
        return t.append_column("_salt", pa.array(salt))

    p1 = grouped_map(
        ds.map_batches(add_salt, batch_format="pyarrow"),
        keys + ["_salt"], partial_fn, num_parts=P, batch_format=batch_format,
    )
    return grouped_map(p1, keys, merge_fn, num_parts=P, batch_format=batch_format)
