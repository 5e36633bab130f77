"""Deduplication operators for the training-data pipeline (U4 + the
near-dup family):

- exact_dedup: hash-partitioned keep-first (grouped_map, one shuffle,
  Arrow sort per partition); dedup_by_phash is a call of it
- minhash_lsh_dedup: shingle -> minhash signature per doc (map_batches)
  -> explode to (band, band_hash) rows -> grouped_map bucket ->
  candidate pairs -> shuffle-join Jaccard verify -> DISTRIBUTED
  connected components (hash-min + pointer jumping, O(log d) rounds)
- simhash_pairs: 64-bit simhash, exhaustive banding (max_hamming+1
  bands => pigeonhole-complete recall), vectorized XOR+popcount
  verify — emits EXACTLY the pairs with hamming <= max_hamming
- ngram_jaccard_pairs: EXACT all-pairs word-n-gram Jaccard >=
  threshold: candidates = pairs sharing >= 1 shingle (a superset of
  every pair with jaccard > 0), verified by exact Jaccard — the
  whole op is SQL-expressible and oracle-checked

Nothing materializes the corpus on the driver: texts are reduced to
per-doc shingle-hash sets once (map_batches), pair<->set joins run as
grouped_map shuffle joins on id buckets, and CC labels only ever move
through grouped shuffles + a tiny changed-count aggregate.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..kernels import text as T
from ..stages.grouped import grouped_map

# popcount LUT for uint8 (numpy 1.26 has no bitwise_count)
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array."""
    return _POP8[x.view(np.uint8).reshape(len(x), 8)].sum(axis=1).astype(np.int64)


def _isin_sorted(ids: np.ndarray, sorted_ref: np.ndarray) -> np.ndarray:
    """Membership of ids in a SORTED array — the searchsorted+clamp
    idiom in ONE empty-safe place (an empty ref used to IndexError at
    some call sites and was guarded ad hoc at others)."""
    if not len(sorted_ref):
        return np.zeros(len(ids), dtype=bool)
    pos = np.minimum(np.searchsorted(sorted_ref, ids), len(sorted_ref) - 1)
    return sorted_ref[pos] == ids


def _splitmix64(x: np.ndarray, seed: int) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 — used to build an
    order-independent 128-bit set hash from sorted-distinct elements."""
    with np.errstate(over="ignore"):
        x = x + np.uint64(seed)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return x ^ (x >> np.uint64(31))


def _first_per_key(keys: list[str], order_col: str):
    """-> fn(t): the row of least `order_col` per `keys` value in t,
    the earliest in t on ties. One stable Arrow sort by keys then
    order_col; a row opens its key's run when any key column differs
    from the row before (EXACT columns, not a 64-bit hash that would
    merge colliding keys at ~1e8-key scale; null equals null)."""
    import pyarrow.compute as pc

    def fn(t: pa.Table) -> pa.Table:
        t = t.take(pc.sort_indices(t, sort_keys=[(c, "ascending") for c in keys + [order_col]]))
        first = np.zeros(len(t), dtype=bool)
        if len(t):
            first[0] = True
            for c in keys:
                a, b = t[c].slice(1), t[c].slice(0, len(t) - 1)
                diff = pc.fill_null(pc.not_equal(a, b), pc.xor(pc.is_null(a), pc.is_null(b)))
                first[1:] |= diff.to_numpy(zero_copy_only=False)
        return t.filter(pa.array(first))

    return fn


def exact_dedup(ds: ray.data.Dataset, key_cols: list[str], order_col: str,
                num_parts: int | None = None, salt_hot: bool = False) -> ray.data.Dataset:
    """Keep the row with min(order_col) per key (U4): one grouped_map
    exchange, each partition cut by _first_per_key in Arrow — Python
    dispatch per partition, not per key (a per-group map_groups cost
    ~30 s at 100k images / 50k keys in the flagship dedup; this ~1 s).

    min-per-key is associative, so skewed keys (a 10^5x-duplicated
    document, a meme's phash) salt cleanly (north_rule): with
    `salt_hot`, salted_grouped_map probes for hot keys, phase 1 keeps
    the min per (key, salt) and phase 2 merges the few survivors per
    key."""
    first = _first_per_key(key_cols, order_col)
    if not salt_hot:
        return grouped_map(ds, key_cols, first, num_parts=num_parts, batch_format="pyarrow")

    from ..stages.grouped import salted_grouped_map

    def merge(t: pa.Table) -> pa.Table:
        return first(t).drop_columns(["_salt"])

    return salted_grouped_map(
        ds, key_cols, _first_per_key(key_cols + ["_salt"], order_col), merge,
        num_parts=num_parts, batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# per-doc shingle-hash sets (the join payload replacing raw texts)

def shingle_sets(
    docs: ray.data.Dataset,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 3,
) -> ray.data.Dataset:
    """-> (doc_id, sh: list<int64>) — sorted distinct FNV64 hashes of
    the word-k-shingles. Jaccard over these equals Jaccard over the
    shingle strings (64-bit collisions are ~1e-10 at corpus scale)."""

    def fn(t: pa.Table) -> pa.Table:
        # ONE vectorized hash call over every shingle in the batch,
        # then per-doc sorted-distinct via a single lexsort — identical
        # to per-doc np.unique(hash(shingles)) but without 2 numpy
        # calls per document
        texts = t[text_col].to_pylist()
        all_sh: list[str] = []
        counts = np.empty(len(texts), dtype=np.int64)
        for i, s in enumerate(texts):
            sh = T.shingles(s, shingle_k)
            counts[i] = len(sh)
            all_sh.extend(sh)
        if all_sh:
            hs = T.stable_hash64_array(all_sh).astype(np.int64)
        else:
            hs = np.empty(0, dtype=np.int64)
        doc = np.repeat(np.arange(len(texts)), counts)
        order = np.lexsort((hs, doc))
        doc, hs = doc[order], hs[order]
        if len(hs):
            keep = np.empty(len(hs), dtype=bool)
            keep[0] = True
            keep[1:] = (doc[1:] != doc[:-1]) | (hs[1:] != hs[:-1])
            doc, hs = doc[keep], hs[keep]
        offs = np.concatenate(
            ([0], np.cumsum(np.bincount(doc, minlength=len(texts))))
        ).astype(np.int32)
        arr = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), pa.array(hs, pa.int64())
        )
        return pa.table({id_col: t[id_col], "sh": arr})

    return docs.map_batches(fn, batch_format="pyarrow")


def verify_jaccard(
    pairs: ray.data.Dataset,
    docs: ray.data.Dataset,
    threshold: float,
    text_col: str = "text",
    id_col: str = "doc_id",
    shingle_k: int = 3,
    sets: ray.data.Dataset | None = None,
) -> ray.data.Dataset:
    """Exact-Jaccard verify as a shuffle join on doc id: each pair
    explodes into two (key=id) rows, one grouped_map co-locates them
    with the per-doc shingle-hash sets, a second grouped_map regroups
    the two halves of each pair and applies the threshold. The corpus
    never lands on the driver."""
    if sets is None:
        sets = shingle_sets(docs, text_col, id_col, shingle_k)

    # Broadcast semi-join prefilter: only docs that appear in a
    # candidate pair need their shingle set shipped through the join
    # shuffle. Near-dup candidates are normally a small fraction of the
    # corpus, so the distinct-id vector is tiny — ray.put it once and
    # filter `sets` in place (zero-copy plasma read per task). Gated:
    # above the cap the id vector is no longer broadcast-sized and we
    # fall back to the full-shuffle join, which is then no worse.
    PREFILTER_MAX_PAIRS = 4_000_000
    # materialize is deliberate: `pairs` is consumed up to three times
    # (count, the prefilter id pull, explode) and recomputing it means
    # re-running the upstream LSH. Callers should hand in a DEDUPED
    # pair set (lsh_candidate_pairs dedup=True) so what persists here
    # is the true verify workload, not cross-band duplicates.
    pairs = pairs.materialize()
    n_pairs = pairs.count()
    if n_pairs <= PREFILTER_MAX_PAIRS:
        if n_pairs == 0:
            cand_ids = np.empty(0, dtype=np.int64)
        else:
            idf = pairs.select_columns(["id_a", "id_b"]).to_pandas()
            cand_ids = np.unique(
                np.concatenate(
                    [
                        idf["id_a"].to_numpy().astype(np.int64),
                        idf["id_b"].to_numpy().astype(np.int64),
                    ]
                )
            )
        ids_ref = ray.put(cand_ids)

        def semi(t: pa.Table) -> pa.Table:
            wanted = ray.get(ids_ref)
            ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
            return t.filter(pa.array(_isin_sorted(ids, wanted)))

        sets = sets.map_batches(semi, batch_format="pyarrow")

    def explode_pairs(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = len(a)
        return pa.table(
            {
                "key": np.concatenate([a, b]),
                "id_a": np.concatenate([a, a]),
                "id_b": np.concatenate([b, b]),
                "side": np.concatenate(
                    [np.zeros(n, dtype=np.int64), np.ones(n, dtype=np.int64)]
                ),
                "sh": pa.array([[]] * (2 * n), pa.list_(pa.int64())),
            }
        )

    def tag_sets(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "key": ids,
                "id_a": np.full(len(ids), -1, dtype=np.int64),
                "id_b": np.full(len(ids), -1, dtype=np.int64),
                "side": np.full(len(ids), -1, dtype=np.int64),
                "sh": t["sh"],
            }
        )

    u = pairs.map_batches(explode_pairs, batch_format="pyarrow").union(
        sets.map_batches(tag_sets, batch_format="pyarrow")
    )

    def attach(df: pd.DataFrame) -> pa.Table:
        # vectorized join: pair rows pick up their doc's set by key.
        # Returns ARROW with sh as a real list<int64> — a pandas object
        # column of ndarrays would be re-encoded as Ray's tensor
        # extension at the next shuffle's pandas->arrow boundary, and
        # the FIXED-shape variant (all sets the same length, e.g. a
        # constant-length corpus) crashes the reduce-side conversion
        # back to pandas (zero-copy chunked to_numpy).
        srows = df[df["side"] < 0][["key", "sh"]].drop_duplicates("key")
        prows = df[df["side"] >= 0].drop(columns=["sh"])
        if not len(prows):
            return pa.table(
                {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
                 "side": pa.array([], pa.int64()),
                 "sh": pa.array([], pa.list_(pa.int64()))}
            )
        m = prows.merge(srows, on="key", how="left")
        cells = m["sh"].to_numpy()
        lens = np.fromiter(
            (len(v) if isinstance(v, np.ndarray) else 0 for v in cells),
            dtype=np.int64,
            count=len(cells),
        )
        chunks = [v for v in cells if isinstance(v, np.ndarray) and len(v)]
        flat = (
            np.concatenate(chunks).astype(np.int64)
            if chunks
            else np.empty(0, dtype=np.int64)
        )
        offs = np.concatenate(([0], np.cumsum(lens))).astype(np.int32)
        sh_arr = pa.ListArray.from_arrays(
            pa.array(offs, pa.int32()), pa.array(flat, pa.int64())
        )
        return pa.table(
            {
                "id_a": m["id_a"].to_numpy(np.int64),
                "id_b": m["id_b"].to_numpy(np.int64),
                "side": m["side"].to_numpy(np.int64),
                "sh": sh_arr,
            }
        )

    halves = grouped_map(u, ["key"], attach)

    def jac(df: pd.DataFrame) -> pd.DataFrame:
        # vectorized regroup: merge the two halves of each pair, then
        # ALL pairs' sorted-set intersections in one lexsort — each
        # side's set is distinct, so a (pair, value) appearing twice
        # is exactly one intersection element
        ga = df[df["side"] == 0][["id_a", "id_b", "sh"]].drop_duplicates(["id_a", "id_b"])
        gb = df[df["side"] == 1][["id_a", "id_b", "sh"]].drop_duplicates(["id_a", "id_b"])
        m = ga.merge(gb, on=["id_a", "id_b"], suffixes=("_a", "_b"))
        if not len(m):
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64),
                 "id_b": pd.Series(dtype=np.int64),
                 "jaccard": pd.Series(dtype=np.float64)}
            )
        ca = m["sh_a"].to_numpy()
        cb = m["sh_b"].to_numpy()
        na = np.fromiter((len(v) for v in ca), dtype=np.int64, count=len(ca))
        nb = np.fromiter((len(v) for v in cb), dtype=np.int64, count=len(cb))
        flat = [np.asarray(v, dtype=np.int64) for v in ca if len(v)]
        flat += [np.asarray(v, dtype=np.int64) for v in cb if len(v)]
        if flat:
            vals = np.concatenate(flat)
            pidx = np.concatenate(
                [np.repeat(np.arange(len(m)), na), np.repeat(np.arange(len(m)), nb)]
            )
            order = np.lexsort((vals, pidx))
            pv, vv = pidx[order], vals[order]
            hit = (pv[1:] == pv[:-1]) & (vv[1:] == vv[:-1])
            inter = np.bincount(pv[1:][hit], minlength=len(m))
        else:
            inter = np.zeros(len(m), dtype=np.int64)
        union = na + nb - inter
        # both-empty pairs follow the kernel's 0/0 := 1.0 convention
        j = np.where(union == 0, 1.0, inter / np.maximum(union, 1))
        keep = j >= threshold
        return pd.DataFrame(
            {"id_a": m["id_a"].to_numpy(np.int64)[keep],
             "id_b": m["id_b"].to_numpy(np.int64)[keep],
             "jaccard": j[keep].astype(np.float64)}
        )

    return grouped_map(halves, ["id_a", "id_b"], jac)


# ---------------------------------------------------------------------------
# distributed connected components (hash-min + pointer jumping)

def connected_components(
    pairs: ray.data.Dataset,
    max_rounds: int = 30,
    small_side_limit: int = 1_000_000,
) -> ray.data.Dataset:
    """Min-label propagation over near-dup pairs, fully distributed:
    each round is (a) a gather step — every node takes the min of its
    own and its neighbours' labels — and (b) a pointer-jumping step —
    label := label(label) — so convergence needs O(log diameter)
    rounds, not O(diameter). Labels move only through grouped_map
    shuffles; convergence is a changed-count aggregate (no driver
    dicts). Raises if max_rounds is hit without convergence.

    When the VERIFIED edge list (duplicates only — orders of magnitude
    smaller than the corpus) is under `small_side_limit` rows, a
    driver union-find replaces the rounds — the broadcast-small-side
    pattern: the corpus never moves, only the dup edges do. Pass
    small_side_limit=0 to force the distributed rounds.
    -> (doc_id, cluster = min id in the component)."""

    def seed(t: pa.Table) -> pa.Table:
        a = t["id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {"node": np.concatenate([a, b]), "nbr": np.concatenate([b, a])}
        )

    edges = pairs.map_batches(seed, batch_format="pyarrow").materialize()

    n_edges = edges.count()
    if n_edges == 0:
        # no near-dups: empty clustering with the stable int64 schema
        # (edges.to_pandas() would be column-less -> KeyError 'node')
        return ray.data.from_arrow(
            pa.table({"doc_id": pa.array([], pa.int64()),
                      "cluster": pa.array([], pa.int64())})
        )

    if small_side_limit and n_edges <= small_side_limit:
        df = edges.to_pandas()
        a = df["node"].to_numpy().astype(np.int64)
        b = df["nbr"].to_numpy().astype(np.int64)
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        parent = np.arange(len(nodes), dtype=np.int64)

        def find(i: int) -> int:
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        ia, ib = inv[: len(a)], inv[len(a) :]
        for i, j in zip(ia, ib):
            ri, rj = find(i), find(j)
            if ri != rj:
                parent[max(ri, rj)] = min(ri, rj)  # roots ordered by id index
        roots = np.array([find(i) for i in range(len(nodes))], dtype=np.int64)
        # cluster = min node id in the component; nodes[] ascending, so
        # the root's own id IS the min (union always keeps the smaller)
        out = pd.DataFrame({"doc_id": nodes, "cluster": nodes[roots]})
        return ray.data.from_pandas(out)

    def init_lab(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("node", sort=False)["nbr"].min().reset_index()
        g["label"] = np.minimum(g["node"], g["nbr"])
        return g[["node", "label"]]

    labels = grouped_map(edges, ["node"], init_lab).materialize()

    for _ in range(max_rounds):
        # ---- gather: node <- min(own label, labels of neighbours)
        def as_lab(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"_k": df["node"], "node": df["node"], "label": df["label"], "_e": False}
            )

        def as_edge(df: pd.DataFrame) -> pd.DataFrame:
            # keyed by nbr: the neighbour's label row lives in the same
            # partition; emits (node, nbr_label) messages
            return pd.DataFrame(
                {"_k": df["nbr"], "node": df["node"], "label": -1, "_e": True}
            )

        u = labels.map_batches(as_lab, batch_format="pandas").union(
            edges.map_batches(as_edge, batch_format="pandas")
        )

        def gather(df: pd.DataFrame) -> pd.DataFrame:
            # vectorized: each edge message picks up its key's label row
            lab = df[~df["_e"]][["_k", "node", "label"]].drop_duplicates("_k")
            msgs = df[df["_e"]][["_k", "node"]]
            m = msgs.merge(lab[["_k", "label"]], on="_k", how="inner")
            out = pd.concat(
                [
                    pd.DataFrame({"node": lab["node"].astype(np.int64),
                                  "cand": lab["label"].astype(np.int64)}),
                    pd.DataFrame({"node": m["node"].astype(np.int64),
                                  "cand": m["label"].astype(np.int64)}),
                ]
            )
            if len(out):
                return out
            # typed empty: an untyped {} frame becomes a columnless /
            # float64 block and destabilizes the downstream shuffle
            return pd.DataFrame(
                {"node": pd.Series(dtype=np.int64), "cand": pd.Series(dtype=np.int64)}
            )

        msgs = grouped_map(u, ["_k"], gather)

        def minmerge(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("node", sort=False)["cand"].min().reset_index()
            return g.rename(columns={"cand": "label"})

        new_labels = grouped_map(msgs, ["node"], minmerge).materialize()

        # ---- changed count (tiny aggregate, no driver dicts)
        def diff_tag(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby("node", sort=False)["label"].agg(["min", "max", "count"])
            changed = ((g["count"] < 2) | (g["min"] != g["max"])).sum()
            return pd.DataFrame({"changed": [int(changed)]})

        both = labels.union(new_labels)
        changed = int(
            grouped_map(both, ["node"], diff_tag).sum("changed") or 0
        )

        # ---- pointer jump: label := label(label)
        def as_anchor(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"_k": df["node"], "node": df["node"], "label": df["label"], "_q": False}
            )

        def as_query(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {"_k": df["label"], "node": df["node"], "label": df["label"], "_q": True}
            )

        u2 = new_labels.map_batches(as_anchor, batch_format="pandas").union(
            new_labels.map_batches(as_query, batch_format="pandas")
        )

        def jump(df: pd.DataFrame) -> pd.DataFrame:
            # vectorized: each query row takes its anchor's label,
            # falling back to its own key where no anchor exists
            anchors = df[~df["_q"]][["_k", "label"]].drop_duplicates("_k")
            queries = df[df["_q"]][["_k", "node"]]
            if not len(queries):
                return pd.DataFrame(
                    {"node": pd.Series(dtype=np.int64),
                     "label": pd.Series(dtype=np.int64)}
                )
            m = queries.merge(anchors, on="_k", how="left")
            tgt = m["label"].fillna(m["_k"]).astype(np.int64)
            return pd.DataFrame({"node": m["node"].astype(np.int64), "label": tgt})

        labels = grouped_map(u2, ["_k"], jump).materialize()
        if changed == 0:
            break
    else:
        raise RuntimeError(
            f"connected_components did not converge in {max_rounds} rounds"
        )

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"doc_id": df["node"].astype(np.int64), "cluster": df["label"].astype(np.int64)}
        )

    return labels.map_batches(fin, batch_format="pandas")


# ---------------------------------------------------------------------------
# MinHash + LSH (scale path: banded signatures bound candidate count)

def minhash_signatures_from_sets(
    sets: ray.data.Dataset,
    id_col: str = "doc_id",
    num_perm: int = 64,
    seed: int = 1,
) -> ray.data.Dataset:
    """Signatures derived from the shingle-HASH sets (the same FNV64
    hashes kernels.text.minhash_signature computes internally), so the
    corpus is shingled ONCE for both LSH and the exact-Jaccard verify.
    Bit-identical to the scalar kernel: min over (a_i * h + b_i) is
    order-independent. Segment mins run via ONE np.minimum.reduceat
    over the flattened list column — no per-row python."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 2**62, size=num_perm).astype(np.uint64) * np.uint64(2) + np.uint64(1)
    b = rng.randint(0, 2**62, size=num_perm).astype(np.uint64)

    def fn(t: pa.Table) -> pa.Table:
        col = t["sh"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        vals = col.values.to_numpy(zero_copy_only=False).view(np.uint64)
        vals = vals[offs[0] : offs[-1]]
        offs = offs - offs[0]
        n = len(t)
        sig = np.full((n, num_perm), np.iinfo(np.uint64).max, dtype=np.uint64)
        lens = np.diff(offs)
        nonempty = np.nonzero(lens > 0)[0]
        if len(nonempty):
            with np.errstate(over="ignore"):
                H = a[None, :] * vals[: offs[-1], None] + b[None, :]
            # empty segments contribute no values, so reduceat over the
            # nonempty starts still covers exactly each row's values
            sig[nonempty] = np.minimum.reduceat(H, offs[nonempty], axis=0)
        return pa.table(
            {
                id_col: t[id_col],
                "sig": pa.FixedSizeListArray.from_arrays(
                    pa.array(sig.reshape(-1).astype(np.int64)), num_perm
                ).cast(pa.list_(pa.int64())),
            }
        )

    return sets.map_batches(fn, batch_format="pyarrow")


def lsh_candidate_pairs(
    sigs: ray.data.Dataset,
    id_col: str = "doc_id",
    bands: int = 16,
    dedup: bool = True,
) -> ray.data.Dataset:
    """Explode signatures into (band, band_hash) keys; docs sharing a
    bucket become candidate pairs. With dedup=True a second grouped
    shuffle removes cross-band duplicates globally; pass dedup=False
    when the consumer is duplicate-tolerant (verify_jaccard groups by
    (id_a, id_b) and drop_duplicates each pair anyway) to save that
    all-to-all — the within-partition dedup still runs."""

    def explode(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_numpy(zero_copy_only=False)
        col = t["sig"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        n = len(t)
        loffs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False)[loffs[0] : loffs[-1]]
        S = flat.view(np.uint64).reshape(n, -1)
        num_perm = S.shape[1]
        if bands > num_perm or num_perm % bands:
            # rows = num_perm // bands would silently ignore trailing
            # permutations (recall below the documented bound), and
            # bands > num_perm gives every doc the constant seed hash
            # -> one global bucket -> O(n^2) pair enumeration
            raise ValueError(
                f"bands={bands} must divide num_perm={num_perm}"
            )
        rows = num_perm // bands
        prime = np.uint64(0x100000001B3)
        out_id, out_band, out_hash = [], [], []
        for bnd in range(bands):
            # vectorized FNV-1a over the band's 8*rows bytes per doc —
            # bit-identical to stable_hash64(chunk.tobytes(), seed=bnd)
            B = np.ascontiguousarray(S[:, bnd * rows : (bnd + 1) * rows]).view(np.uint8).reshape(n, rows * 8)
            h = np.full(n, np.uint64(0xCBF29CE484222325 ^ bnd), dtype=np.uint64)
            with np.errstate(over="ignore"):
                for j in range(rows * 8):
                    h = (h ^ B[:, j].astype(np.uint64)) * prime
            out_id.append(ids)
            out_band.append(np.full(n, bnd, dtype=np.int64))
            out_hash.append(h.view(np.int64))
        return pa.table(
            {
                id_col: np.concatenate(out_id),
                "band": np.concatenate(out_band),
                "bhash": np.concatenate(out_hash),
            }
        )

    exploded = sigs.map_batches(explode, batch_format="pyarrow")

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        # run-length bucket detection over ONE lexsort — no python loop
        # over the (mostly singleton) buckets. ids sort innermost so
        # each bucket's members come out already ascending.
        b = df["band"].to_numpy()
        h = df["bhash"].to_numpy()
        ids = df[id_col].to_numpy()
        if len(b) == 0:
            return pd.DataFrame(
                {"id_a": np.empty(0, ids.dtype), "id_b": np.empty(0, ids.dtype)}
            )
        order = np.lexsort((ids, h, b))
        b, h, ids = b[order], h[order], ids[order]
        new = np.empty(len(b), dtype=bool)
        new[0] = True
        new[1:] = (b[1:] != b[:-1]) | (h[1:] != h[:-1])
        starts = np.flatnonzero(new)
        ends = np.append(starts[1:], len(b))
        big = np.flatnonzero(ends - starts >= 2)
        out_a, out_b = [], []
        for r in big:
            seg = ids[starts[r] : ends[r]]
            ii, jj = np.triu_indices(len(seg), k=1)
            out_a.append(seg[ii])
            out_b.append(seg[jj])
        if not out_a:
            return pd.DataFrame(
                {"id_a": np.empty(0, ids.dtype), "id_b": np.empty(0, ids.dtype)}
            )
        return pd.DataFrame(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b)}
        ).drop_duplicates()

    cand = grouped_map(exploded, ["band", "bhash"], pairs)
    if not dedup:
        return cand

    def dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["id_a", "id_b"])

    return grouped_map(cand, ["id_a", "id_b"], dedup_pairs)


def minhash_lsh_dedup(
    docs: ray.data.Dataset,
    threshold: float = 0.7,
    shingle_k: int = 3,
    num_perm: int = 64,
    bands: int = 32,
    collapse: bool = True,
    collapse_cap: int = 8_000_000,
) -> ray.data.Dataset:
    """-> (doc_id, cluster) for docs in near-dup clusters. bands=32 of
    2 rows: P(miss a true pair at jaccard j) = (1-j^2)^32 — 1e-4 at
    j=0.5; the exact-Jaccard verify then removes false positives, so
    the output equals the exact-threshold clustering up to that recall.

    Exact-set collapse: a clone cluster of m byte-identical (or merely
    shingle-set-identical) docs would put all m in every LSH bucket and
    emit m(m-1)/2 candidate pairs — quadratic in the clone count, the
    dominant real-web skew. Since identical shingle sets are Jaccard-1
    (>= any threshold), the LSH/verify/CC machinery runs on one
    REPRESENTATIVE per distinct set (rep = min doc_id of its group, a
    128-bit splitmix hash keys the groups) and members re-expand with
    the rep's cluster label afterwards. The output is identical: the
    component's min doc id — the cluster label — equals the min over
    its groups' reps. Docs with EMPTY shingle sets are never collapsed
    (Jaccard 0/0 follows the verify kernel's own convention instead).
    Above `collapse_cap` dup-group rows the driver-broadcast mapping no
    longer fits; the collapse then runs FULLY DISTRIBUTED — one
    payload shuffle groups the shingle sets by set hash (reps keep
    their set, members emit narrow mapping rows) and the expansion is
    a grouped join of the mapping against the cluster labels — so
    there is no quadratic fallback at any duplicate volume."""
    # shingle ONCE: the hash sets feed the set-collapse keys, the LSH
    # signatures and the exact-Jaccard verify
    sets = shingle_sets(docs, shingle_k=shingle_k).materialize()

    def _set_hash_cols(t: pa.Table) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        col = t["sh"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        flat = col.values.to_numpy(zero_copy_only=False)[offs[0] : offs[-1]]
        offs = offs - offs[0]
        counts = np.diff(offs)
        n = len(t)
        h1 = np.zeros(n, dtype=np.uint64)
        h2 = np.zeros(n, dtype=np.uint64)
        nonempty = counts > 0
        if flat.size:
            u = flat.view(np.uint64)
            m1 = _splitmix64(u, 0x9E3779B97F4A7C15)
            m2 = _splitmix64(u, 0xC2B2AE3D27D4EB4F)
            starts = offs[:-1][nonempty]
            with np.errstate(over="ignore"):
                for h, m, seed in ((h1, m1, 1), (h2, m2, 2)):
                    x = np.bitwise_xor.reduceat(m, starts)
                    s = np.add.reduceat(m, starts)
                    h[nonempty] = _splitmix64(
                        x ^ _splitmix64(s + counts[nonempty].astype(np.uint64), seed),
                        seed,
                    )
        return h1.view(np.int64), h2.view(np.int64), counts

    def shash(t: pa.Table) -> pa.Table:
        h1, h2, counts = _set_hash_cols(t)
        return pa.table(
            {"doc_id": t["doc_id"], "h1": h1, "h2": h2, "nsh": counts}
        )

    def rep_fn(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["nsh"] > 0]
        g = df.groupby(["h1", "h2"], sort=False)["doc_id"]
        rep = g.transform("min")
        keep = g.transform("size") >= 2
        return pd.DataFrame(
            {
                "doc_id": df.loc[keep, "doc_id"].to_numpy(np.int64),
                "rep": rep[keep].to_numpy(np.int64),
            }
        )

    n_dup = 0
    if collapse:
        mapping = grouped_map(
            sets.map_batches(shash, batch_format="pyarrow"), ["h1", "h2"], rep_fn
        ).materialize()
        n_dup = mapping.count()

    mdf = None
    mapping_nds = None
    lsh_sets = sets
    if 0 < n_dup <= collapse_cap:
        mdf = mapping.to_pandas()
        nonrep = mdf["doc_id"].to_numpy(np.int64)
        nonrep = np.sort(nonrep[nonrep != mdf["rep"].to_numpy(np.int64)])
        nr_ref = ray.put(nonrep)

        def drop_nonrep(t: pa.Table) -> pa.Table:
            drop = ray.get(nr_ref)
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return t.filter(pa.array(~_isin_sorted(ids, drop)))

        lsh_sets = sets.map_batches(drop_nonrep, batch_format="pyarrow")
    elif n_dup > collapse_cap:
        # distributed collapse: too many dup-group rows to broadcast.
        # The narrow (member, rep) mapping from the hash pass above IS
        # the collapse — reuse it. Non-rep members' sets are dropped by
        # a doc_id-keyed shuffle anti-join: the set payload moves ONCE,
        # keyed by the UNIQUE doc_id so there is no hot partition (a
        # set-hash-keyed payload shuffle would land a whole clone
        # cluster's sets in one part). All id arithmetic stays int64
        # (negative ids fine; no float round-trips).
        mapping_nds = mapping

        def sets_tag(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {"doc_id": ids, "sh": t["sh"],
                 "drop": np.zeros(len(ids), dtype=np.int8)}
            )

        def nonrep_tag(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            reps = t["rep"].to_numpy(zero_copy_only=False).astype(np.int64)
            ids = ids[ids != reps]
            n = len(ids)
            return pa.table(
                {"doc_id": ids,
                 "sh": pa.ListArray.from_arrays(
                     pa.array(np.zeros(n + 1, dtype=np.int32)),
                     pa.array([], pa.int64()),
                 ),
                 "drop": np.ones(n, dtype=np.int8)}
            )

        u0 = sets.map_batches(sets_tag, batch_format="pyarrow").union(
            mapping.map_batches(nonrep_tag, batch_format="pyarrow")
        )

        def keep_reps(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False)
            dr = t["drop"].to_numpy(zero_copy_only=False)
            dropids = np.unique(ids[dr == 1])
            keep = ~_isin_sorted(ids, dropids) & (dr == 0)
            return t.filter(pa.array(keep)).select(["doc_id", "sh"])

        # pin the collapsed sets: BOTH the signature pass and the
        # verify join consume them, and without this the whole
        # corpus-payload anti-join shuffle executes twice
        lsh_sets = grouped_map(
            u0, ["doc_id"], keep_reps, batch_format="pyarrow"
        ).materialize()

    sigs = minhash_signatures_from_sets(lsh_sets, num_perm=num_perm)
    # dedup=True is load-bearing even after the collapse: a pair of
    # high-jaccard reps still collides in many of the `bands` bands,
    # and each (band, bhash) bucket hashes to a DIFFERENT grouped_map
    # partition, so without a global dedup up to bands x duplicate pair
    # rows reach the verify join (which explodes each row 2x and
    # shuffles it twice more). Collapsing on the narrow 16-byte/row
    # pair table first is the cheapest point to bound verify volume by
    # TRUE candidates, and it makes verify's broadcast-prefilter gate
    # count real pairs.
    cand = lsh_candidate_pairs(sigs, bands=bands, dedup=True)
    verified = verify_jaccard(cand, docs, threshold, shingle_k=shingle_k, sets=lsh_sets)
    labels = connected_components(verified)
    if mapping_nds is not None:
        # distributed expansion: members join their rep's label via ONE
        # grouped shuffle of two NARROW (int64) tables — labels +
        # mapping, discriminated by an explicit side flag so the full
        # signed id domain is valid. Label rows pass through; members
        # of unlabeled (standalone) groups cluster under their rep,
        # which is the group min. A giant clone group keys all its
        # mapping rows to one rep — narrow 16 B/row skew, heap-safe at
        # orders of magnitude more clones than the payload shuffle the
        # doc_id-keyed anti-join above avoided.
        def lab_tag(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            cl = t["cluster"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {"key": ids, "member": np.zeros(len(ids), dtype=np.int64),
                 "cluster": cl, "side": np.zeros(len(ids), dtype=np.int8)}
            )

        def map_tag(t: pa.Table) -> pa.Table:
            mem = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
            rep = t["rep"].to_numpy(zero_copy_only=False).astype(np.int64)
            return pa.table(
                {"key": rep, "member": mem,
                 "cluster": np.zeros(len(mem), dtype=np.int64),
                 "side": np.ones(len(mem), dtype=np.int8)}
            )

        u2 = labels.map_batches(lab_tag, batch_format="pyarrow").union(
            mapping_nds.map_batches(map_tag, batch_format="pyarrow")
        )

        def expand(df: pd.DataFrame) -> pd.DataFrame:
            labs = df[df["side"] == 0][["key", "cluster"]].drop_duplicates("key")
            mems = df[df["side"] == 1][["key", "member"]]
            out = [pd.DataFrame({"doc_id": labs["key"].to_numpy(np.int64),
                                 "cluster": labs["cluster"].to_numpy(np.int64)})]
            if len(mems):
                # int64-exact label lookup (a pandas left-merge would
                # round-trip missing labels through float64, corrupting
                # ids above 2^53)
                lk = labs["key"].to_numpy(np.int64)
                lc = labs["cluster"].to_numpy(np.int64)
                o = np.argsort(lk)
                lk, lc = lk[o], lc[o]
                keys = mems["key"].to_numpy(np.int64)
                mem = mems["member"].to_numpy(np.int64)
                if len(lk):
                    pos = np.minimum(np.searchsorted(lk, keys), len(lk) - 1)
                    labeled = lk[pos] == keys
                    cl = np.where(labeled, lc[pos], keys)
                else:
                    labeled = np.zeros(len(keys), dtype=bool)
                    cl = keys
                # labeled reps already pass through as label rows
                keep = ~(labeled & (mem == keys))
                out.append(pd.DataFrame({"doc_id": mem[keep], "cluster": cl[keep]}))
            return pd.concat(out, ignore_index=True)

        return grouped_map(u2, ["key"], expand)
    if mdf is None or not len(mdf):
        return labels
    labels = labels.materialize()

    # expand: members of each dup group take their rep's cluster label;
    # a group whose rep joined no verified pair is its own cluster
    # (its members are mutual Jaccard-1 pairs), labeled rep = group min
    member = mdf["doc_id"].to_numpy(np.int64)
    rep = mdf["rep"].to_numpy(np.int64)
    dup_reps = np.unique(rep)
    dr_ref = ray.put(dup_reps)

    def only_dup_reps(t: pa.Table) -> pa.Table:
        keep = ray.get(dr_ref)
        ids = t["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        return t.filter(pa.array(_isin_sorted(ids, keep)))

    rl = labels.map_batches(only_dup_reps, batch_format="pyarrow").to_pandas()
    if len(rl):
        lab_ids = rl["doc_id"].to_numpy(np.int64)
        lab_cl = rl["cluster"].to_numpy(np.int64)
    else:  # empty -> column-less frame
        lab_ids = np.empty(0, dtype=np.int64)
        lab_cl = np.empty(0, dtype=np.int64)
    order = np.argsort(lab_ids)
    lab_ids, lab_cl = lab_ids[order], lab_cl[order]
    if len(lab_ids):
        pos = np.minimum(np.searchsorted(lab_ids, rep), len(lab_ids) - 1)
        has_label = lab_ids[pos] == rep
        cluster = np.where(has_label, lab_cl[pos], rep)
    else:
        has_label = np.zeros(len(rep), dtype=bool)
        cluster = rep.copy()
    # labeled reps already have their own row in `labels`; unlabeled
    # (standalone) groups emit every member including the rep
    emit = ~(has_label & (member == rep))
    extra = ray.data.from_arrow(
        pa.table({"doc_id": member[emit], "cluster": cluster[emit]})
    )
    return labels.union(extra)


# ---------------------------------------------------------------------------
# SimHash — exhaustive banding + vectorized Hamming verify

def simhash_pairs(
    docs: ray.data.Dataset, max_hamming: int = 4, text_col: str = "text",
    id_col: str = "doc_id", max_bucket: int = 2048,
) -> ray.data.Dataset:
    """ALL pairs with simhash Hamming distance <= max_hamming:
    max_hamming+1 bands of the 64-bit simhash guarantee (pigeonhole)
    that every such pair shares at least one exact band, so recall is
    complete; per-bucket verify is one vectorized XOR + popcount.

    Each pair is emitted by exactly ONE bucket — its FIRST matching
    band (a vectorized xor-mask check) — so no global dedup shuffle is
    needed: the grouped candidate pass IS the result. Buckets larger
    than max_bucket are split recursively by sub-bands of the not-yet-
    used bits (pigeonhole again: <= max_hamming mismatches among the
    remaining bits => some sub-band of max_hamming+1 matches), keeping
    per-bucket pair enumeration O(max_bucket^2), not O(corpus^2).

    max_hamming defaults to 4 — loose thresholds (e.g. 10) mean 11
    bands of 5-6 bits whose buckets hold ~n/32 of the corpus AND an
    output that is itself near-quadratic on template-heavy corpora;
    pass max_hamming=10 explicitly to opt in (the oracle-checked query
    does, at its known scale)."""
    nb = max_hamming + 1
    widths = [64 // nb + (1 if i < 64 % nb else 0) for i in range(nb)]
    offs = np.cumsum([0] + widths[:-1])
    band_masks = np.array(
        [np.uint64(((1 << w) - 1) << o) for w, o in zip(widths, offs)],
        dtype=np.uint64,
    )

    def explode(t: pa.Table) -> pa.Table:
        """(band, bval, doc_id, sh) — one row per doc per band, so ALL
        bands bucket in ONE grouped shuffle."""
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        hs = T.simhash64_batch(t[text_col].to_pylist())
        n = len(ids)
        band_col = np.repeat(np.arange(nb, dtype=np.int64), n)
        bvals = np.concatenate(
            [
                ((hs >> np.uint64(offs[b])) & np.uint64((1 << widths[b]) - 1)).astype(
                    np.int64
                )
                for b in range(nb)
            ]
        )
        return pa.table(
            {
                "band": band_col,
                "bval": bvals,
                id_col: np.tile(ids, nb),
                "sh": np.tile(hs.astype(np.int64), nb),
            }
        )

    exploded = docs.map_batches(explode, batch_format="pyarrow")

    all_bits = np.arange(64, dtype=np.uint64)
    EMPTY_OUT = pa.table(
        {"id_a": pa.array([], pa.int64()), "id_b": pa.array([], pa.int64()),
         "hamming": pa.array([], pa.int64())}
    )

    def pairs(t: pa.Table) -> pa.Table:
        """Pure-numpy segment pass: lexsort the partition by
        (band, bval), walk bucket segments, enumerate each with one
        triu + xor + popcount — no pandas groupby in the hot path."""
        if t.num_rows < 2:
            return EMPTY_OUT
        band_c = t["band"].to_numpy(zero_copy_only=False)
        bval_c = t["bval"].to_numpy(zero_copy_only=False)
        ids_c = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        sh_c = t["sh"].to_numpy(zero_copy_only=False).astype(np.uint64)
        order = np.lexsort((ids_c, bval_c, band_c))
        band_c, bval_c = band_c[order], bval_c[order]
        ids_c, sh_c = ids_c[order], sh_c[order]
        cut = np.nonzero((np.diff(band_c) != 0) | (np.diff(bval_c) != 0))[0] + 1
        seg_starts = np.concatenate([[0], cut])
        seg_ends = np.concatenate([cut, [len(band_c)]])

        out_a: list[np.ndarray] = []
        out_b: list[np.ndarray] = []
        out_h: list[np.ndarray] = []

        def emit(band: int, ids_i: np.ndarray, ids_j: np.ndarray,
                 x: np.ndarray) -> None:
            d = _popcount64(x)
            keep = d <= max_hamming
            # FIRST-match rule: skip pairs that already matched an
            # earlier band — that band's bucket emits them. Makes the
            # global pair set exactly-once with no dedup shuffle.
            for j in range(band):
                keep &= (x & band_masks[j]) != 0
            if keep.any():
                out_a.append(ids_i[keep])
                out_b.append(ids_j[keep])
                out_h.append(d[keep])

        TILE = 2048

        def enumerate_bucket(band: int, ids: np.ndarray, sh: np.ndarray) -> None:
            """All-pairs xor+popcount, tiled so peak memory is
            O(TILE^2) regardless of bucket size."""
            n = len(ids)
            if n <= TILE:
                ii, jj = np.triu_indices(n, k=1)
                emit(band, ids[ii], ids[jj], sh[ii] ^ sh[jj])
                return
            for ti in range(0, n, TILE):
                ia = slice(ti, min(ti + TILE, n))
                # diagonal tile: upper triangle only
                ii, jj = np.triu_indices(ia.stop - ia.start, k=1)
                emit(band, ids[ia][ii], ids[ia][jj], sh[ia][ii] ^ sh[ia][jj])
                for tj in range(ti + TILE, n, TILE):
                    ib = slice(tj, min(tj + TILE, n))
                    xa = sh[ia][:, None] ^ sh[ib][None, :]
                    gi = np.repeat(ids[ia], ib.stop - ib.start)
                    gj = np.tile(ids[ib], ia.stop - ia.start)
                    emit(band, gi, gj, xa.ravel())

        def split(band: int, ids: np.ndarray, sh: np.ndarray,
                  avail: np.ndarray) -> bool:
            """Recursive sub-band split of an oversize bucket; returns
            True if this bucket's pairs may have been emitted more than
            once (=> the caller must dedup locally: a pair can match
            several sub-bands).

            Recursion only proceeds while the split makes progress: a
            chunk whose largest sub-bucket still holds > half the rows
            (low-entropy corpora — near-identical hashes) aborts to ONE
            tiled enumeration of the whole bucket, whose cost is then
            of the order of the genuinely-quadratic output. High-entropy
            oversize buckets (random band collisions at corpus scale)
            shrink geometrically, so depth <= log2(n/max_bucket) and
            total work stays O(nb^depth * n * max_bucket)."""
            if len(ids) <= max_bucket or len(avail) < nb:
                enumerate_bucket(band, ids, sh)
                return False
            chunks = np.array_split(avail, nb)
            resplit = False
            for ci, chunk in enumerate(chunks):
                rem = np.concatenate([c for k, c in enumerate(chunks) if k != ci])
                v = np.zeros(len(ids), dtype=np.uint64)
                for pos_idx, p in enumerate(chunk):
                    v |= ((sh >> np.uint64(p)) & np.uint64(1)) << np.uint64(pos_idx)
                so = np.argsort(v, kind="stable")
                vs = v[so]
                scut = np.nonzero(np.diff(vs))[0] + 1
                ss = np.concatenate([[0], scut])
                se = np.concatenate([scut, [len(vs)]])
                if (se - ss).max() > len(ids) // 2:
                    # chunk barely discriminates: enumerate the whole
                    # bucket once (covers every remaining chunk too)
                    enumerate_bucket(band, ids, sh)
                    return True
                for s, e in zip(ss, se):
                    if e - s >= 2:
                        sub = so[s:e]
                        split(band, ids[sub], sh[sub], rem)
                        resplit = True
            return resplit

        for s, e in zip(seg_starts, seg_ends):
            if e - s < 2:
                continue
            band = int(band_c[s])
            mark = len(out_a)
            if split(band, ids_c[s:e], sh_c[s:e], all_bits) and len(out_a) > mark:
                # local dedup of this bucket's (possibly re-emitted) pairs
                a = np.concatenate(out_a[mark:])
                b = np.concatenate(out_b[mark:])
                h = np.concatenate(out_h[mark:])
                key = np.stack([a, b], axis=1)
                _, uniq = np.unique(key, axis=0, return_index=True)
                del out_a[mark:], out_b[mark:], out_h[mark:]
                out_a.append(a[uniq])
                out_b.append(b[uniq])
                out_h.append(h[uniq])
        if not out_a:
            return EMPTY_OUT
        return pa.table(
            {"id_a": np.concatenate(out_a), "id_b": np.concatenate(out_b),
             "hamming": np.concatenate(out_h).astype(np.int64)}
        )

    # exactly-once emission (first-match rule + per-bucket local dedup)
    # means the grouped candidate pass IS the final pair set.
    return grouped_map(exploded, ["band", "bval"], pairs, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# n-gram Jaccard pairs — EXACT (share-a-shingle candidates + verify)

def _candidate_census(exploded: ray.data.Dataset, census_mod: int) -> int:
    """Unbiased estimate of the exact path's candidate volume
    Sum_buckets C(df, 2): whole shingle buckets survive a deterministic
    hash predicate with probability 1/census_mod, pair counts are EXACT
    within the sampled buckets (one grouped count over 1/census_mod of
    the instance rows), and the total scales back up. A sampled bucket
    contributes its full C(df, 2), so E[estimate] equals the true sum
    regardless of the df distribution."""

    def samp(t: pa.Table) -> pa.Table:
        sh = t["shingle"].to_numpy(zero_copy_only=False).view(np.uint64)
        keep = _splitmix64(sh, 0xA5A5A5A5DEADBEEF) % np.uint64(census_mod) == 0
        return pa.table({"shingle": sh[keep].view(np.int64)})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        c = df["shingle"].value_counts().to_numpy(np.float64)
        return pd.DataFrame({"p": [float((c * (c - 1.0) / 2.0).sum())]})

    part = grouped_map(
        exploded.map_batches(samp, batch_format="pyarrow"), ["shingle"], partial
    )
    tot = part.sum("p")
    return int((tot or 0.0) * census_mod)


def ngram_jaccard_pairs(
    docs: ray.data.Dataset, n: int = 3, threshold: float = 0.5,
    text_col: str = "text", id_col: str = "doc_id",
    max_bucket: int = 2000,
    route_budget: int | None = 20_000_000,
    census_mod: int = 64,
    num_perm: int = 64, bands: int = 32,
) -> ray.data.Dataset:
    """All pairs with word-n-gram Jaccard >= threshold: a pair with
    jaccard > 0 shares >= 1 shingle, so grouping by shingle hash
    enumerates a complete candidate superset; the shuffle-join verify
    applies the exact threshold. Convention: empty/whitespace docs
    have EMPTY shingle sets and never pair (the 0/0 := 1.0 Jaccard
    convention applies only to the minhash verify; the SQL oracle
    filters empty docs to match).

    Scale contract: the exact path's cost is the candidate volume
    Sum_buckets C(df, 2), which grows super-linearly on
    vocabulary-saturated corpora (random shingle collisions put ~every
    doc pair in some bucket). A bucket-sampled census (one grouped
    count over 1/census_mod of the shingle instances) estimates that
    volume up front; above `route_budget` estimated candidate pairs
    the operator LOGS and routes through minhash-LSH banding + the
    exact-Jaccard verify instead: every emitted pair still carries its
    EXACT jaccard and passes the exact threshold, but recall follows
    the banding bound (P[miss] = (1 - j^(num_perm/bands))^bands, 1e-4
    at j = 0.5 with 64/32) instead of 1. Pass route_budget=None to
    force the exact path at any volume — the oracle-checked query does
    (fixture corpora are far below the budget, so its exact path never
    routes anyway). Oversize single buckets (> max_bucket docs sharing
    one shingle, stop-shingle blowup) are enumerated in bounded tiles
    on the exact path — cost is honest, never silently dropped."""
    sets = shingle_sets(docs, text_col, id_col, n)
    if route_budget is not None:
        # sets feed census + (either) candidate stage — pin them once
        sets = sets.materialize()

    def explode(t: pa.Table) -> pa.Table:
        """(doc_id, shingle, nset) — each row carries its doc's
        distinct-shingle count so the pair stage needs no size join."""
        ids = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        col = t["sh"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        flat = col.values.to_numpy(zero_copy_only=False)
        counts = np.diff(offs)
        return pa.table(
            {
                "doc_id": np.repeat(ids, counts),
                "shingle": flat[offs[0] : offs[-1]].astype(np.int64),
                "nset": np.repeat(counts.astype(np.int64), counts),
            }
        )

    exploded = sets.map_batches(explode, batch_format="pyarrow")

    if route_budget is not None and _candidate_census(exploded, census_mod) > route_budget:
        import logging

        logging.getLogger(__name__).warning(
            "ngram_jaccard_pairs: estimated candidate volume exceeds "
            "route_budget=%d — routing through minhash-LSH banding + "
            "exact verify (recall follows the banding bound; "
            "route_budget=None forces the exact path)",
            route_budget,
        )

        def nonempty(t: pa.Table) -> pa.Table:
            col = t["sh"]
            if isinstance(col, pa.ChunkedArray):
                col = col.combine_chunks()
            offs = col.offsets.to_numpy(zero_copy_only=False)
            return t.filter(pa.array(np.diff(offs) > 0))

        # empty docs never pair on the exact path (no shared shingle);
        # drop them BEFORE signatures or the all-max minhash signature
        # would bucket every empty doc together with verify 0/0 := 1.0
        ne = sets.map_batches(nonempty, batch_format="pyarrow")
        sigs = minhash_signatures_from_sets(ne, id_col=id_col, num_perm=num_perm)
        cand = lsh_candidate_pairs(sigs, id_col=id_col, bands=bands, dedup=False)
        return verify_jaccard(
            cand, docs, threshold, text_col, id_col, n, sets=ne
        )

    def shared(df: pd.DataFrame) -> pd.DataFrame:
        """Per shingle bucket, one (id_a, id_b, na, nb) row per SHARED
        shingle (multiplicity = |A∩B| after the final count)."""
        sh = df["shingle"].to_numpy()
        ids = df["doc_id"].to_numpy()
        ns = df["nset"].to_numpy()
        order = np.lexsort((ids, sh))
        sh_s, ids_s, ns_s = sh[order], ids[order], ns[order]
        uniq, starts, counts = np.unique(sh_s, return_index=True, return_counts=True)
        out = []
        for k in np.nonzero(counts >= 2)[0]:
            m = int(counts[k])
            sl = slice(starts[k], starts[k] + m)
            if m <= max_bucket:
                ii, jj = np.triu_indices(m, k=1)
                out.append((ids_s[sl][ii], ids_s[sl][jj], ns_s[sl][ii], ns_s[sl][jj]))
                continue
            # oversize bucket (stop-shingle blowup): enumerate the SAME
            # pair set in max_bucket-bounded tiles so per-tile memory
            # stays <= max_bucket^2 rows; cost is the honest C(m, 2) —
            # the route_budget census is what protects callers from it
            import logging

            logging.getLogger(__name__).warning(
                "ngram_jaccard_pairs: tiled enumeration of oversize "
                "shingle bucket %d with %d docs (C(m,2)=%d pairs)",
                int(uniq[k]), m, m * (m - 1) // 2,
            )
            b_ids, b_ns = ids_s[sl], ns_s[sl]
            for i0 in range(0, m, max_bucket):
                i1 = min(i0 + max_bucket, m)
                ii, jj = np.triu_indices(i1 - i0, k=1)
                out.append((b_ids[i0 + ii], b_ids[i0 + jj],
                            b_ns[i0 + ii], b_ns[i0 + jj]))
                for j0 in range(i1, m, max_bucket):
                    j1 = min(j0 + max_bucket, m)
                    na_, nb_ = i1 - i0, j1 - j0
                    ai = np.repeat(np.arange(i0, i1), nb_)
                    bj = np.tile(np.arange(j0, j1), na_)
                    out.append((b_ids[ai], b_ids[bj], b_ns[ai], b_ns[bj]))
        if not out:
            return pd.DataFrame(
                {c: pd.Series(dtype=np.int64) for c in ("id_a", "id_b", "na", "nb")}
            )
        return pd.DataFrame(
            {
                "id_a": np.concatenate([o[0] for o in out]),
                "id_b": np.concatenate([o[1] for o in out]),
                "na": np.concatenate([o[2] for o in out]),
                "nb": np.concatenate([o[3] for o in out]),
            }
        )

    cand = grouped_map(exploded, ["shingle"], shared)

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        """|A∩B| = row multiplicity per pair — one vectorized lexsort
        run-length count on the REAL id columns (a packed
        id_a*2^32+id_b key aliased distinct pairs and corrupted
        reconstructed ids for ids >= 2^32, negative ids, or
        id_a >= 2^31 — the id-domain class the minhash path fixed)."""
        if not len(df):
            return pd.DataFrame(
                {"id_a": pd.Series(dtype=np.int64), "id_b": pd.Series(dtype=np.int64),
                 "jaccard": pd.Series(dtype=np.float64)}
            )
        a = df["id_a"].to_numpy()
        b = df["id_b"].to_numpy()
        order = np.lexsort((b, a))
        a_s, b_s = a[order], b[order]
        new = np.ones(len(a_s), dtype=bool)
        new[1:] = (a_s[1:] != a_s[:-1]) | (b_s[1:] != b_s[:-1])
        starts = np.flatnonzero(new)
        inter = np.diff(np.append(starts, len(a_s)))
        idx = order[starts]
        na = df["na"].to_numpy()[idx]
        nb = df["nb"].to_numpy()[idx]
        jac = inter / (na + nb - inter)
        keep = jac >= threshold
        return pd.DataFrame(
            {
                "id_a": a_s[starts][keep].astype(np.int64),
                "id_b": b_s[starts][keep].astype(np.int64),
                "jaccard": jac[keep],
            }
        )

    return grouped_map(cand, ["id_a", "id_b"], finalize)
