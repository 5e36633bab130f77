"""grouped_map's coalesce decision: the exchange repartitions its input
to P blocks only when the plan says it will see more than 2*P blocks
(or cannot say), and both routes give the same rows."""

import numpy as np
import pandas as pd
import pyarrow as pa

P = 16


def _ops(ds, name: str = "Repartition") -> int:
    """Operators of type `name` in `ds`'s logical plan."""
    n, stack = 0, [ds._logical_plan.dag]
    while stack:
        op = stack.pop()
        n += type(op).__name__ == name
        stack.extend(op.input_dependencies)
    return n


def _table(n=40_000, seed=1) -> pa.Table:
    rng = np.random.RandomState(seed)
    k = rng.randint(0, 500, n).astype(np.int64)
    k[: n // 4] = 7  # a hot key: a quarter of the rows, > 1/P
    return pa.table({"k": rng.permutation(k), "v": rng.uniform(0, 10, n)})


def _lazy(t: pa.Table, n_blocks: int):
    import ray.data

    step = -(-len(t) // n_blocks)
    blocks = [t.slice(i, step) for i in range(0, len(t), step)]
    src = ray.data.from_arrow(blocks).materialize()
    assert src.num_blocks() == n_blocks
    return src.map_batches(lambda b: b, batch_format="pyarrow")


def _count_sum():
    # built inside a function so workers get it by value, not by a
    # reference to this test module
    def count_sum(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False)["v"].agg(["count", "sum"]).reset_index()

    return count_sum


def _sorted(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values("k").reset_index(drop=True)


def test_fragmented_input_coalesces_compact_does_not(ray_session):
    from geotools_ray.stages.grouped import grouped_map

    t = _table()
    fragmented = grouped_map(_lazy(t, 4 * P), ["k"], _count_sum(), num_parts=P)
    assert _ops(fragmented) == 1
    for n_blocks in (P, 2 * P):
        compact = grouped_map(_lazy(t, n_blocks), ["k"], _count_sum(), num_parts=P)
        assert _ops(compact) == 0


def test_read_las_input_does_not_coalesce(ray_session, tmp_path):
    from geotools_ray.sources.las import read_las, write_las
    from geotools_ray.stages.grouped import grouped_map

    rng = np.random.RandomState(2)
    for i in range(5):
        write_las(
            pa.table({"x": rng.uniform(0, 100, 500), "y": rng.uniform(0, 100, 500),
                      "z": rng.uniform(0, 30, 500)}),
            str(tmp_path / f"tile{i}.las"),
        )
    pts = read_las(str(tmp_path)).map_batches(
        lambda b: b.append_column("k", pa.array((b["x"].to_numpy() // 10).astype(np.int64))),
        batch_format="pyarrow",
    )
    ds = grouped_map(
        pts, ["k"], lambda df: df.groupby("k").size().reset_index(name="n"), num_parts=P
    )
    # read_las plans one task per CPU, no repartition; grouped_map adds none
    assert _ops(ds) == _ops(pts) == 0
    assert ds.to_pandas()["n"].sum() == 2500


def test_both_routes_give_the_same_rows(ray_session):
    from geotools_ray.stages.grouped import grouped_map, salted_grouped_map

    t = _table()

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["k", "_salt"], sort=False)["v"].agg(["count", "sum"])
        return out.reset_index()[["k", "count", "sum"]]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("k", sort=False)[["count", "sum"]].sum().reset_index()

    want = (
        t.to_pandas().groupby("k")["v"].agg(["count", "sum"]).reset_index()
    )
    for n_blocks in (4 * P, P):  # coalesced, then not
        plain = _sorted(grouped_map(_lazy(t, n_blocks), ["k"], _count_sum(), num_parts=P))
        salted_ds = salted_grouped_map(_lazy(t, n_blocks), ["k"], partial, merge, num_parts=P)
        assert _ops(salted_ds, "Sort") == 2  # the hot key took the salted path
        assert _ops(salted_ds) == (n_blocks > 2 * P)
        salted = _sorted(salted_ds)
        for got in (plain, salted):
            assert np.array_equal(got["k"], want["k"])
            assert np.array_equal(got["count"], want["count"])
            assert np.allclose(got["sum"], want["sum"])


def test_one_file_split_read_reports_one_block(ray_session, tmp_path):
    """Pins a known blind spot of the plan-side count (Ray 2.49): a
    one-file read_parquet split by override_num_blocks=32 reports 1
    block but emits 32, so grouped_map at P=16 does not coalesce it.
    A Ray upgrade that changes either number fails here."""
    import pyarrow.parquet as pq
    import ray.data

    from geotools_ray.stages.grouped import grouped_map

    path = str(tmp_path / "one.parquet")
    pq.write_table(_table(), path)
    ds = ray.data.read_parquet(path, override_num_blocks=32)
    assert ds._plan.initial_num_blocks() == 1
    assert ds.materialize().num_blocks() == 32
    out = grouped_map(ds, ["k"], _count_sum(), num_parts=P)
    assert _ops(out) == 0
    assert out.to_pandas()["count"].sum() == 40_000


def test_warm_up_reads_one_parquet_file(ray_session, tmp_path):
    import pyarrow.parquet as pq

    from geotools_ray.stages.grouped import warm_up

    # a string first column: the warm-up's key is whatever comes first
    pq.write_table(pa.table({"name": ["a", "b", "a"], "v": [1, 2, 3]}), tmp_path / "t.parquet")
    warm_up(str(tmp_path / "t.parquet"))
