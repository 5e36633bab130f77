"""Local stand-in for the driver's correctness gate: run every
queries() pipeline at a given sf and compare against oracle_sql() via
DuckDB — row count, schema (column names), and an order-insensitive
value compare (floats canonicalized to 6 decimal places, matching the
engine/SQL convention of _round_away(x, 6) / ROUND(x, 6); rows sorted).

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def to_pandas(res):
    import pandas as pd
    import pyarrow as pa

    try:
        import ray.data

        if isinstance(res, ray.data.Dataset):
            df = res.to_pandas()
            if df.shape[1] == 0:
                # ray's to_pandas drops the schema when every block is
                # empty — rebuild the typed empty frame from ds.schema()
                sch = res.schema()
                if sch is not None:
                    df = pa.schema(
                        list(zip(sch.names, sch.types))
                    ).empty_table().to_pandas()
            return df
    except ImportError:
        pass
    if isinstance(res, pa.Table):
        return res.to_pandas()
    assert isinstance(res, pd.DataFrame)
    return res


def canon(df):
    """Sort columns by name, canonicalize values, sort rows."""
    import numpy as np
    import pandas as pd

    df = df.reindex(sorted(df.columns), axis=1).copy()
    for c in df.columns:
        if pd.api.types.is_float_dtype(df[c]):
            df[c] = np.round(df[c].astype(np.float64), 6)
        elif pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif df[c].dtype == object:
            df[c] = df[c].astype(str)
        else:
            try:
                df[c] = df[c].astype("int64")
            except (TypeError, ValueError):
                df[c] = df[c].astype(str)
    df = df.sort_values(list(df.columns)).reset_index(drop=True)
    return df


def main():
    import duckdb
    import ray

    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    if len(sys.argv) > 1 and not os.path.isdir(sf_dir):
        print(
            f"error: sf_dir {sf_dir!r} is not a directory "
            "(usage: check_correctness.py [sf_dir] [query ...])"
        )
        sys.exit(2)
    only = set(sys.argv[2:])

    ray.init(
        address="local", num_cpus=8, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import __ray_entry__ as E

    qs = E.queries()
    sqls = E.oracle_sql()

    unknown = only - set(qs)
    if unknown:
        # a typo'd filter must not print "0 pass, 0 fail" and exit 0
        print(f"error: unknown queries: {sorted(unknown)}")
        sys.exit(2)

    con = duckdb.connect()
    for t in "region nation customer supplier part orders lineitem events documents embeddings".split():
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')")

    from geotools_ray.stages.grouped import warm_up

    warm_up(f"{sf_dir}/region.parquet")  # untimed: Ray Data's start-up is no query's time
    n_pass = n_fail = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.time()
        try:
            got = canon(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: ray error: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.time() - t0
        if name not in sqls:
            print(f"ok?  {name}: rows={len(got)} (no oracle, rows-only) [{dt:.1f}s]")
            n_pass += 1
            continue
        try:
            want = canon(con.execute(sqls[name]).df())
        except Exception as e:
            print(f"FAIL {name}: oracle error: {type(e).__name__}: {e}")
            n_fail += 1
            continue
        problems = []
        if len(got) != len(want):
            problems.append(f"rows {len(got)} != {len(want)}")
        if list(got.columns) != list(want.columns):
            problems.append(f"cols {list(got.columns)} != {list(want.columns)}")
        if not problems:
            if not got.equals(want):
                # locate first mismatching cell for debugging
                neq = (got != want) & ~(got.isna() & want.isna())
                bad = neq.any(axis=1)
                i = bad.idxmax() if bad.any() else None
                if i is not None:
                    problems.append(
                        f"values differ at row {i}: got={got.loc[i].to_dict()} want={want.loc[i].to_dict()}"
                    )
                else:
                    # equals() failed but no cell differs -> dtype drift
                    # (e.g. int64 vs float64), which the driver's hash
                    # compare DOES catch. Surface it instead of passing.
                    dd = [
                        f"{c}: got {got[c].dtype} != want {want[c].dtype}"
                        for c in got.columns
                        if got[c].dtype != want[c].dtype
                    ]
                    problems.append("dtype mismatch: " + "; ".join(dd or ["unknown"]))
        if problems:
            print(f"FAIL {name}: {'; '.join(problems)} [{dt:.1f}s]")
            n_fail += 1
        else:
            print(f"PASS {name}: rows={len(got)} [{dt:.1f}s]")
            n_pass += 1

    print(f"\n{n_pass} pass, {n_fail} fail")
    ray.shutdown()
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
