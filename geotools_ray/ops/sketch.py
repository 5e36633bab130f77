"""Mergeable sketches — the approximate-aggregation tier a 100-TB
pipeline needs where exact answers would shuffle everything:

- HyperLogLog (Flajolet et al. 2007) approximate COUNT DISTINCT:
  per-batch register arrays (2^p uint8, max-mergeable), a two-level
  merge (batch partials -> P content-hashed groups -> driver), never a
  `unique` shuffle. Standard error ~ 1.04/sqrt(2^p) (p=14 -> 0.8%).
- Misra-Gries (1982) heavy hitters: per-batch bounded summaries of
  (key hash, count) with the classic decrement step, merged by
  summing per key then re-pruning (Agarwal et al. 2013 show the merge
  keeps the deterministic guarantee: every key with true frequency
  > n/(capacity+1) survives with count underestimated by at most
  n/(capacity+1)). It is the candidate pass of the exact
  sketch-then-verify heavy_hitters query, not the shuffle's skew
  probe (that is stages.grouped.detect_hot_buckets).

Both are deterministic (hash_columns key hashing, no RNG) and
associative/commutative, so any batch/block partitioning produces the
same answer. Reference analog: the mutex-guarded hot-cell cache
(src/pointstats.cpp:229-238) is the reference's ad-hoc skew valve —
here skew detection is an explicit, bounded, mergeable pass.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..stages.grouped import grouped_map, hash_columns

# ---------------------------------------------------------------------------
# HyperLogLog


def _bit_length_u64(w: np.ndarray) -> np.ndarray:
    """floor(log2(w)) + 1 per element (0 for w == 0), exact for the
    full uint64 range — float log2 misrounds near powers of two above
    2^53."""
    w = w.copy()
    bl = np.zeros(len(w), dtype=np.int64)
    for shift in (32, 16, 8, 4, 2, 1):
        m = w >= (np.uint64(1) << np.uint64(shift))
        bl[m] += shift
        w[m] >>= np.uint64(shift)
    bl[w > 0] += 1
    return bl


def _finalize64(h: np.ndarray) -> np.ndarray:
    """Full murmur3 64-bit finalizer. hash_columns' single-multiply mix
    is fine for partitioning, but HLL reads fine-grained BIT patterns
    (top p bits as the register index, the leading-zero run of the
    rest as rho): small integer keys leave those bits structured under
    one multiply (measured +21% cardinality bias), while the full
    avalanche restores the estimator's stated error."""
    h = h.astype(np.uint64).copy()
    with np.errstate(over="ignore"):
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xFF51AFD7ED558CCD)
        h ^= h >> np.uint64(33)
        h *= np.uint64(0xC4CEB9FE1A85EC53)
        h ^= h >> np.uint64(33)
    return h


def hll_registers(h: np.ndarray, p: int) -> np.ndarray:
    """One HLL register array (2^p uint8) from uint64 key hashes."""
    m = 1 << p
    h = _finalize64(h)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rem = (h << np.uint64(p)).astype(np.uint64)  # top 64-p hash bits, shifted up
    # rho = leading zeros of the remaining 64-p bits + 1; rem == 0
    # means all 64-p bits were zero -> rho = 64 - p + 1
    rho = np.where(rem == 0, 64 - p + 1, 64 - _bit_length_u64(rem) + 1).astype(np.uint8)
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho)
    return regs


def hll_estimate(regs: np.ndarray) -> float:
    """Classic HLL estimator with the small-range (linear counting)
    correction; the 64-bit hash space makes the large-range correction
    irrelevant at any realistic cardinality."""
    m = len(regs)
    alpha = 0.7213 / (1.0 + 1.079 / m) if m >= 128 else {16: 0.673, 32: 0.697, 64: 0.709}.get(m, 0.7213 / (1.0 + 1.079 / m))
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        return float(m * np.log(m / zeros))
    return float(est)


def approx_ndistinct(
    ds: ray.data.Dataset,
    keys: list[str],
    p: int = 14,
    num_parts: int | None = None,
) -> float:
    """Approximate COUNT(DISTINCT keys) without a `unique` shuffle:
    each batch reduces to one 2^p-byte register row, partials merge in
    P grouped tasks (register-wise max — associative, so the grouping
    key is just a content hash), and the driver folds the <= P
    survivors. Total bytes moved: O(batches * 2^p), independent of
    row count or key cardinality."""
    import zlib

    m = 1 << p
    P = num_parts or 16

    def partial(t: pa.Table) -> pa.Table:
        if not len(t):
            return pa.table({"g": pa.array([], pa.int64()),
                             "regs": pa.array([], pa.binary())})
        regs = hll_registers(hash_columns(t, keys), p)
        b = regs.tobytes()
        return pa.table(
            {"g": pa.array([zlib.crc32(b) % P], pa.int64()),
             "regs": pa.array([b], pa.binary())}
        )

    def merge(t: pa.Table) -> pa.Table:
        acc = np.zeros(m, dtype=np.uint8)
        for b in t["regs"].to_pylist():
            acc = np.maximum(acc, np.frombuffer(b, dtype=np.uint8))
        g = t["g"][0].as_py() if len(t) else 0
        return pa.table({"g": pa.array([g], pa.int64()),
                         "regs": pa.array([acc.tobytes()], pa.binary())})

    parts = grouped_map(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["g"], merge, num_parts=min(P, 16), batch_format="pyarrow",
    ).take_all()
    acc = np.zeros(m, dtype=np.uint8)
    for row in parts:
        acc = np.maximum(acc, np.frombuffer(row["regs"], dtype=np.uint8))
    return hll_estimate(acc)


# ---------------------------------------------------------------------------
# Misra-Gries heavy hitters


def _mg_reduce(h: np.ndarray, c: np.ndarray, capacity: int) -> tuple[np.ndarray, np.ndarray]:
    """Prune a (key hash, count) summary to `capacity` entries with the
    Misra-Gries decrement: subtract the (capacity+1)-th largest count
    from everything and drop the non-positive — the classic bounded-
    error step (each pruned unit of count is matched by a decrement on
    >= capacity other keys)."""
    if len(h) <= capacity:
        return h, c
    kth = np.partition(c, len(c) - capacity - 1)[len(c) - capacity - 1]
    c2 = c - kth
    keep = c2 > 0
    return h[keep], c2[keep]


def heavy_hitter_hashes(
    ds: ray.data.Dataset,
    keys: list[str],
    threshold_frac: float = 0.01,
    capacity: int | None = None,
    num_parts: int | None = None,
) -> np.ndarray:
    """Deterministic heavy-hitter probe: uint64 hash_columns() values
    of every key whose frequency MAY exceed threshold_frac of the
    rows, computed by mergeable Misra-Gries summaries (no sampling —
    a key above the threshold cannot be missed). Output is a superset
    of the true hot set (false positives shrink as capacity grows);
    heavy_hitters_exact verifies it with exact counts.

    capacity defaults to 4/threshold_frac, giving count error
    <= n * threshold_frac/4 per merge level (2 levels here), so any
    key with true freq >= threshold_frac * n survives both prunes
    with a count above the final threshold test's slack."""
    cap = capacity or max(16, int(4.0 / threshold_frac))
    P = num_parts or 16

    def partial(t: pa.Table) -> pa.Table:
        if not len(t):
            return pa.table({"kh": pa.array([], pa.int64()),
                             "cnt": pa.array([], pa.int64()),
                             "n": pa.array([], pa.int64())})
        hh, cc = np.unique(hash_columns(t, keys), return_counts=True)
        hh, cc = _mg_reduce(hh, cc.astype(np.int64), cap)
        if not len(hh):
            # fully pruned (all-distinct batch): a zero sentinel still
            # carries the batch's row count; cnt=0 merges harmlessly
            # even if a real key hashes to 0
            return pa.table(
                {"kh": pa.array([0], pa.int64()),
                 "cnt": pa.array([0], pa.int64()),
                 "n": pa.array([len(t)], pa.int64())}
            )
        n_col = np.zeros(len(hh), dtype=np.int64)
        n_col[0] = len(t)  # the batch total rides exactly one row
        return pa.table({"kh": hh.view(np.int64), "cnt": cc, "n": n_col})

    def merge(t: pa.Table) -> pa.Table:
        kh = t["kh"].to_numpy(zero_copy_only=False).view(np.uint64)
        cnt = t["cnt"].to_numpy(zero_copy_only=False)
        n = int(t["n"].to_numpy(zero_copy_only=False).sum())
        order = np.argsort(kh, kind="stable")
        khs, cs = kh[order], cnt[order]
        uniq, starts = np.unique(khs, return_index=True)
        sums = np.add.reduceat(cs, starts) if len(cs) else np.array([], dtype=np.int64)
        uniq, sums = _mg_reduce(uniq, sums, cap)
        out_n = np.zeros(max(len(uniq), 1), dtype=np.int64)
        out_n[0] = n
        if not len(uniq):
            return pa.table({"kh": pa.array([0], pa.int64()),
                             "cnt": pa.array([0], pa.int64()),
                             "n": pa.array([n], pa.int64())})
        return pa.table({"kh": uniq.view(np.int64), "cnt": sums, "n": out_n})

    parts = grouped_map(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["kh"], merge, num_parts=min(P, 16), batch_format="pyarrow",
    ).take_all()
    if not parts:
        return np.array([], dtype=np.uint64)
    kh = np.array([r["kh"] for r in parts], dtype=np.int64).view(np.uint64)
    cnt = np.array([r["cnt"] for r in parts], dtype=np.int64)
    total = int(sum(r["n"] for r in parts))
    if not total:
        return np.array([], dtype=np.uint64)
    # survivors' counts are underestimates by at most 2 prune levels'
    # slack; admit anything whose LOWER bound plus that slack clears
    # the threshold (superset semantics — see docstring)
    slack = 2.0 * total / (cap + 1)
    keep = (cnt + slack) >= threshold_frac * total
    keep &= cnt > 0
    return np.unique(kh[keep])


# ---------------------------------------------------------------------------
# exact global quantiles, two passes, no global sort


def _compress_weighted(v: np.ndarray, w: np.ndarray, B: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted-merge + recompress a weighted point summary to <= B
    points; each kept point absorbs its preceding segment's weight, so
    interpolated ranks err by at most ceil(W/B) + max single weight."""
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    if len(v) <= B:
        return v, w
    cw = np.cumsum(w)
    W = cw[-1]
    targets = np.arange(1, B + 1) * (W / B)
    idx = np.unique(np.minimum(np.searchsorted(cw, targets, side="left"), len(v) - 1))
    nw = np.diff(np.concatenate([[0], cw[idx]]))
    return v[idx], nw


def exact_quantiles(
    ds: ray.data.Dataset,
    col: str,
    qs: list[float],
    B: int = 4096,
    num_parts: int | None = None,
) -> pa.Table:
    """EXACT nearest-rank-up quantiles (value at rank ceil(q*n) in
    sorted order — the engine's A7 convention) in TWO streaming passes,
    never a global sort:

      1. a mergeable weighted-point summary (per-batch sorted stride
         points with exact in-batch ranks, grouped recompression to B
         points) brackets each target rank to +-err values;
      2. one verify pass counts rows strictly below each bracket and
         collapses the bracket window to distinct (value, count) rows
         — the exact k-th value reads off the window's cumulative
         counts. If a bracket missed (summary error beyond the slack),
         the pass retries with a 4x bracket — the exact counts make
         the result self-certifying, the sketch only sizes the window.

    At 10^12 rows a global ds.sort is the single most expensive
    all-to-all in the engine; this moves O(batches * B) summary points
    plus a ~(n/B)-row window. -> pa.table({q, value}).

    Contract: `col` must be NaN-free (NaN has no total order — numpy
    sorts it last, SQL engines vary); filter upstream if needed."""
    import math

    import zlib

    P = num_parts or 16

    def partial(t: pa.Table) -> pa.Table:
        x = np.asarray(t[col].to_numpy(zero_copy_only=False), dtype=np.float64)
        nb = len(x)
        if not nb:
            return pa.table({"g": pa.array([], pa.int64()),
                             "v": pa.array([], pa.float64()),
                             "w": pa.array([], pa.int64())})
        xs = np.sort(x)
        s = max(1, nb // B)
        idx = np.arange(s - 1, nb, s)
        if idx[-1] != nb - 1:
            idx = np.append(idx, nb - 1)
        w = np.diff(np.concatenate([[0], idx + 1]))
        g = zlib.crc32(xs[idx].tobytes()) % P
        return pa.table(
            {"g": np.full(len(idx), g, dtype=np.int64), "v": xs[idx], "w": w}
        )

    def merge(t: pa.Table) -> pa.Table:
        v, w = _compress_weighted(
            t["v"].to_numpy(zero_copy_only=False),
            t["w"].to_numpy(zero_copy_only=False).astype(np.int64),
            B,
        )
        g = t["g"][0].as_py() if len(t) else 0
        return pa.table({"g": np.full(len(v), g, dtype=np.int64), "v": v, "w": w})

    summary = grouped_map(
        ds.map_batches(partial, batch_format="pyarrow", batch_size=None),
        ["g"], merge, num_parts=min(P, 16), batch_format="pyarrow",
    ).to_pandas()
    if not len(summary):
        return pa.table({"q": pa.array(qs, pa.float64()),
                         "value": pa.array([None] * len(qs), pa.float64())})
    sv = summary["v"].to_numpy()
    sw = summary["w"].to_numpy().astype(np.int64)
    order = np.argsort(sv, kind="stable")
    sv, sw = sv[order], sw[order]
    cw = np.cumsum(sw)
    n = int(cw[-1])
    ranks = [min(max(1, math.ceil(q * n)), n) for q in qs]
    # summary rank slack: per-batch stride (<= n/B summed), one
    # recompression level (<= n/B + max point weight), + safety
    err = int(3 * n / B) + int(sw.max()) + 8

    values: dict[int, float] = {}
    todo = list(range(len(qs)))
    while todo:
        brackets = []
        for qi in todo:
            k = ranks[qi]
            lo_i = np.searchsorted(cw, max(1, k - err), side="left")
            hi_i = np.searchsorted(cw, min(n, k + err), side="left")
            lo = sv[min(lo_i, len(sv) - 1)]
            hi = sv[min(hi_i, len(sv) - 1)]
            if k - err < 1:
                lo = -np.inf
            if k + err > n:
                hi = np.inf
            brackets.append((qi, lo, hi))
        bref = ray.put(brackets)

        def verify(t: pa.Table) -> pa.Table:
            import ray as _ray

            brs = _ray.get(bref)
            x = np.asarray(t[col].to_numpy(zero_copy_only=False), dtype=np.float64)
            out_b, out_v, out_c, out_below = [], [], [], []
            for bi, (qi, lo, hi) in enumerate(brs):
                below = int((x < lo).sum())
                m = (x >= lo) & (x <= hi)
                uv, uc = np.unique(x[m], return_counts=True)
                out_b.append(np.full(len(uv) + 1, bi, dtype=np.int64))
                out_v.append(np.concatenate([[-np.inf], uv]))
                out_c.append(np.concatenate([[0], uc]).astype(np.int64))
                out_below.append(
                    np.concatenate([[below], np.zeros(len(uv), dtype=np.int64)])
                )
            return pa.table(
                {"b": np.concatenate(out_b), "v": np.concatenate(out_v),
                 "c": np.concatenate(out_c), "below": np.concatenate(out_below)}
            )

        def fold(t: pa.Table) -> pa.Table:
            import pandas as pd

            df = t.to_pandas()
            out = df.groupby(["b", "v"], as_index=False)[["c", "below"]].sum()
            return pa.Table.from_pandas(out, preserve_index=False)

        win = grouped_map(
            ds.map_batches(verify, batch_format="pyarrow", batch_size=None),
            ["b", "v"], fold, num_parts=min(P, 16), batch_format="pyarrow",
        ).to_pandas()
        missed = []
        for bi, (qi, lo, hi) in enumerate(brackets):
            g = win[win["b"] == bi].sort_values("v")
            below = int(g["below"].sum())
            k = ranks[qi]
            body = g[np.isfinite(g["v"].to_numpy())]
            cum = below + body["c"].to_numpy().cumsum()
            hit = np.nonzero(cum >= k)[0]
            if k <= below or not len(hit):
                missed.append(qi)  # bracket missed: widen and retry
            else:
                values[qi] = float(body["v"].to_numpy()[hit[0]])
        todo = missed
        err *= 4

    return pa.table(
        {"q": pa.array(list(qs), pa.float64()),
         "value": pa.array([values[i] for i in range(len(qs))], pa.float64())}
    )


def heavy_hitters_exact(
    ds: ray.data.Dataset,
    keys: list[str],
    threshold_frac: float,
    num_parts: int | None = None,
) -> ray.data.Dataset:
    """EXACT heavy hitters via sketch-then-verify: the Misra-Gries
    pass yields a candidate superset (it cannot miss a key at the
    threshold), then one narrow verify pass pre-aggregates ONLY the
    candidate keys' rows per batch and a tiny grouped sum applies the
    exact cut count >= ceil(threshold_frac * n). Equivalent to SQL
    GROUP BY keys HAVING count(*) >= ceil(threshold_frac * n) — but
    the shuffle moves O(batches x candidates) partial rows, never a
    full per-key count table. -> (keys..., cnt)."""
    import math

    import pandas as pd

    cand = heavy_hitter_hashes(ds, keys, threshold_frac, num_parts=num_parts)
    total = ds.count()
    thresh = int(math.ceil(threshold_frac * total)) if total else 0
    schema = ds.schema()
    schema = getattr(schema, "base_schema", schema)
    key_types = {f.name: f.type for f in schema if f.name in keys}
    if not len(cand) or not total:
        empty = {k: pa.array([], key_types.get(k, pa.int64())) for k in keys}
        empty["cnt"] = pa.array([], pa.int64())
        return ray.data.from_arrow(pa.table(empty))
    cref = ray.put(np.sort(cand))

    def filt_partial(t: pa.Table) -> pa.Table:
        import ray as _ray

        hot = _ray.get(cref)
        h = hash_columns(t, keys)
        pos = np.minimum(np.searchsorted(hot, h), len(hot) - 1)
        t = t.select(keys).filter(pa.array(hot[pos] == h))
        if not len(t):
            return t.append_column("pn", pa.array([], pa.int64()))
        df = t.to_pandas()
        g = df.groupby(keys, sort=False, as_index=False).size()
        g = g.rename(columns={"size": "pn"})
        return pa.Table.from_pandas(g, preserve_index=False)

    def final(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(keys, sort=False, as_index=False)["pn"].sum()
        out = out[out["pn"] >= thresh].rename(columns={"pn": "cnt"})
        return out.reset_index(drop=True)

    partials = ds.map_batches(filt_partial, batch_format="pyarrow", batch_size=None)
    return grouped_map(partials, keys, final, num_parts=num_parts)
