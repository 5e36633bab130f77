"""Near-dup pipelines with planted duplicates."""

import numpy as np
import pandas as pd
import pytest


def make_docs(ray_session):
    import ray.data

    rng = np.random.RandomState(0)
    vocab = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
             "hotel", "india", "juliet", "kilo", "lima"]
    rows = []
    for i in range(60):
        words = [vocab[rng.randint(len(vocab))] for _ in range(30)]
        rows.append({"doc_id": i, "text": " ".join(words)})
    # planted near-dups: 100 and 101 are copies of 0 with 2 words changed;
    # 102 is an exact copy of 1
    base0 = rows[0]["text"].split()
    near = list(base0)
    near[5] = "zulu"
    rows.append({"doc_id": 100, "text": " ".join(near)})
    near2 = list(base0)
    near2[7] = "yankee"
    rows.append({"doc_id": 101, "text": " ".join(near2)})
    rows.append({"doc_id": 102, "text": rows[1]["text"]})
    return ray.data.from_items(rows)


def test_minhash_lsh_dedup_finds_planted(ray_session):
    from geotools_ray.ops.dedup import minhash_lsh_dedup

    docs = make_docs(ray_session)
    out = minhash_lsh_dedup(docs, threshold=0.6).to_pandas()
    clusters = dict(zip(out["doc_id"], out["cluster"]))
    assert clusters.get(100) == clusters.get(0) == clusters.get(101)
    assert clusters.get(102) == clusters.get(1)
    # unrelated docs are not clustered together with doc 0
    assert clusters.get(2) is None or clusters[2] != clusters[0]


def test_simhash_pairs_finds_exact_copy(ray_session):
    from geotools_ray.ops.dedup import simhash_pairs

    docs = make_docs(ray_session)
    out = simhash_pairs(docs, max_hamming=8).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (1, 102) in pairs  # exact copy -> hamming 0
    assert out[(out["id_a"] == 1) & (out["id_b"] == 102)]["hamming"].iloc[0] == 0


def test_ngram_jaccard_pairs(ray_session):
    from geotools_ray.ops.dedup import ngram_jaccard_pairs

    docs = make_docs(ray_session)
    out = ngram_jaccard_pairs(docs, n=3, threshold=0.5).to_pandas()
    pairs = set(zip(out["id_a"], out["id_b"]))
    assert (0, 100) in pairs and (0, 101) in pairs and (1, 102) in pairs
    # jaccard of the exact pair is 1.0
    assert out[(out["id_a"] == 1) & (out["id_b"] == 102)]["jaccard"].iloc[0] == pytest.approx(1.0)


def test_exact_dedup(ray_session):
    import ray.data

    from geotools_ray.ops.dedup import exact_dedup

    rows = [{"k": i % 5, "v": f"r{i:03d}"} for i in range(40)]
    ds = ray.data.from_items(rows)
    out = exact_dedup(ds, ["k"], "v").to_pandas().sort_values("k")
    assert len(out) == 5
    assert list(out["v"]) == [f"r{i:03d}" for i in range(5)]

    # string keys (one of them null) and a descending int order: the
    # least order value per key wins, whatever the input order
    keys = ["b", "a", None, "c"]
    rows = [{"s": keys[i % 4], "n": i % 3, "o": 100 - i} for i in range(48)]
    ds = ray.data.from_items(rows).repartition(3)
    out = exact_dedup(ds, ["s", "n"], "o", num_parts=4).to_pandas()
    got = {(r.s, r.n): r.o for r in out.itertuples()}
    want = {}
    for r in rows:
        k = (r["s"], r["n"])
        want[k] = min(want.get(k, r["o"]), r["o"])
    assert len(out) == len(want) == 12
    assert got == want


def test_connected_components_driver_equals_distributed(ray_session):
    """The small-side union-find and the distributed min-label rounds
    must produce identical (doc_id, cluster) labelings."""
    import ray.data

    from geotools_ray.ops.dedup import connected_components

    rng = np.random.RandomState(7)
    a = rng.randint(0, 200, 150).astype(np.int64)
    b = rng.randint(0, 200, 150).astype(np.int64)
    keep = a != b
    pairs = pd.DataFrame({"id_a": a[keep], "id_b": b[keep]})
    ds = ray.data.from_pandas(pairs)

    small = (
        connected_components(ds)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    dist = (
        connected_components(ds, small_side_limit=0)
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    )
    assert small["doc_id"].tolist() == dist["doc_id"].tolist()
    assert small["cluster"].tolist() == dist["cluster"].tolist()


def test_connected_components_empty_edges(ray_session):
    """A corpus with no near-dups yields an EMPTY verified-pair set;
    connected_components must return an empty (doc_id, cluster)
    dataset with int64 schema, not crash (regression: KeyError 'node'
    / float64 roots IndexError on the union-find fast path)."""
    import pyarrow as pa
    import ray.data

    from geotools_ray.ops.dedup import connected_components

    empty = ray.data.from_arrow(
        pa.table({"id_a": pa.array([], pa.int64()),
                  "id_b": pa.array([], pa.int64())})
    )
    for limit in (1_000_000, 0):
        out = connected_components(empty, small_side_limit=limit)
        assert out.count() == 0
        sch = out.schema()
        assert sch.names == ["doc_id", "cluster"]
        assert [str(t) for t in sch.types] == ["int64", "int64"]


def test_minhash_dedup_no_dups_corpus(ray_session):
    """minhash_lsh_dedup on an all-distinct corpus returns an empty
    clustering (round-2 regression: crashed on the empty edge set)."""
    import ray.data

    from geotools_ray.ops.dedup import minhash_lsh_dedup

    rows = [
        {"doc_id": i, "text": " ".join(f"w{i}_{j}" for j in range(30))}
        for i in range(12)
    ]
    out = minhash_lsh_dedup(ray.data.from_items(rows), threshold=0.6).to_pandas()
    assert len(out) == 0


def test_empty_docs_engine_sql_parity(ray_session):
    """Empty/whitespace docs: DuckDB splits '' into [''] while the
    engine sees no words. The oracles now align with the engine's
    conventions — ngram: empty docs never pair; minhash: empty docs
    cluster together (0/0 := 1.0 via the exact-clone collapse);
    simhash: empty docs hash to 0 and pair at hamming 0."""
    import duckdb
    import pandas as pd
    import ray.data

    from geotools_ray import queries_dedup_sql as QD
    from geotools_ray.ops.dedup import (
        minhash_lsh_dedup, ngram_jaccard_pairs, simhash_pairs,
    )

    rows = [
        {"doc_id": 0, "text": ""},
        {"doc_id": 1, "text": "   "},
        {"doc_id": 2, "text": "alpha beta gamma delta epsilon zeta eta theta"},
        {"doc_id": 3, "text": "alpha beta gamma delta epsilon zeta eta theta"},
        {"doc_id": 4, "text": "totally different words here nothing shared at all"},
    ]
    docs_df = pd.DataFrame(rows)
    con = duckdb.connect()
    con.register("documents", docs_df)
    ds = ray.data.from_items(rows)

    def pairset(df):
        return set(zip(df["id_a"].astype(int), df["id_b"].astype(int)))

    got_ng = pairset(ngram_jaccard_pairs(ds, n=3, threshold=0.3).to_pandas())
    want_ng = pairset(con.execute(QD.SQL_NGRAM_PAIRS).df())
    assert got_ng == want_ng and (0, 1) not in got_ng and (2, 3) in got_ng

    got_sh = pairset(simhash_pairs(ds, max_hamming=10).to_pandas())
    want_sh = pairset(con.execute(QD.SQL_SIMHASH_PAIRS).df())
    assert got_sh == want_sh and (0, 1) in got_sh

    got_mh = minhash_lsh_dedup(ds, threshold=0.5).to_pandas()
    got_cl = set(zip(got_mh["doc_id"].astype(int), got_mh["cluster"].astype(int)))
    want_mh = con.execute(QD.SQL_MINHASH_DEDUP).df()
    want_cl = set(zip(want_mh["doc_id"].astype(int), want_mh["cluster"].astype(int)))
    assert got_cl == want_cl and (1, 0) in got_cl  # empty docs cluster


def test_simhash_pairs_equals_bruteforce(ray_session):
    """Pigeonhole recall + first-match exactly-once emission: the
    banded distributed pair set must EQUAL the brute-force all-pairs
    set (ids, multiplicity one, and hamming values), across hamming
    gates and forced sub-band splits (tiny max_bucket)."""
    import ray.data

    from geotools_ray.kernels import text as T
    from geotools_ray.ops.dedup import _popcount64, simhash_pairs

    rng = np.random.RandomState(3)
    base = [f"w{i}" for i in range(40)]
    rows = [
        {"doc_id": i, "text": " ".join(rng.choice(base, 25))} for i in range(250)
    ]
    docs = ray.data.from_items(rows)
    hs = T.simhash64_batch([r["text"] for r in rows])
    ii, jj = np.triu_indices(len(rows), k=1)
    d = _popcount64(hs[ii] ^ hs[jj])
    for mh, mb in [(4, 2048), (10, 2048), (10, 8)]:
        out = simhash_pairs(docs, max_hamming=mh, max_bucket=mb).to_pandas()
        got = set(zip(out["id_a"], out["id_b"]))
        assert len(got) == len(out), "duplicate pair emitted"
        want = set(zip(ii[d <= mh].tolist(), jj[d <= mh].tolist()))
        assert got == want
        hm = dict(zip(zip(out["id_a"], out["id_b"]), out["hamming"]))
        kept = d <= mh
        for a, b, dd in zip(ii[kept], jj[kept], d[kept]):
            assert hm[(a, b)] == dd


def test_simhash_low_entropy_bucket_bounded(ray_session):
    """Near-identical corpus (one giant band bucket): the progress
    guard must fall back to tiled enumeration — output still exact."""
    import ray.data

    from geotools_ray.kernels import text as T
    from geotools_ray.ops.dedup import _popcount64, simhash_pairs

    tmpl = [f"t{i}" for i in range(30)]
    rows = []
    for i in range(300):
        w = list(tmpl)
        w[i % 30] = f"x{i % 7}"
        rows.append({"doc_id": i, "text": " ".join(w)})
    docs = ray.data.from_items(rows)
    hs = T.simhash64_batch([r["text"] for r in rows])
    out = simhash_pairs(docs, max_hamming=10, max_bucket=16).to_pandas()
    got = set(zip(out["id_a"], out["id_b"]))
    assert len(got) == len(out)
    ii, jj = np.triu_indices(len(rows), k=1)
    d = _popcount64(hs[ii] ^ hs[jj])
    want = set(zip(ii[d <= 10].tolist(), jj[d <= 10].tolist()))
    assert got == want


def test_minhash_collapse_parity_and_skew(ray_session):
    """Exact-set collapse must be invisible in the output: a corpus
    mixing clone groups (incl. one whose members ALSO near-dup another
    base doc), plain near-dups, empty texts and singletons clusters
    identically with collapse on and off — and with collapse on, a
    500x clone group contributes candidate work linear in the clones."""
    import ray.data

    from geotools_ray.ops.dedup import minhash_lsh_dedup

    rng = np.random.RandomState(3)
    vocab = [f"w{i}" for i in range(500)]
    rows = []
    nid = 0

    def add(text):
        nonlocal nid
        rows.append({"doc_id": nid, "text": text})
        nid += 1

    base = " ".join(rng.choice(vocab, 40))
    for _ in range(30):  # singletons
        add(" ".join(rng.choice(vocab, 40)))
    for _ in range(500):  # big clone group (the skew case)
        add(base)
    near = base.split()
    near[3] = "zzz"  # near-dup of the clone group's text
    add(" ".join(near))
    add("")  # empty docs: never collapsed
    add("")
    clone2 = " ".join(rng.choice(vocab, 40))
    add(clone2)
    add(clone2)  # standalone clone pair: a cluster on its own

    docs = ray.data.from_items(rows).materialize()
    a = (
        minhash_lsh_dedup(docs, threshold=0.5, collapse=True)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    b = (
        minhash_lsh_dedup(docs, threshold=0.5, collapse=False)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, b)
    # collapse_cap=1 forces the fully-distributed collapse + expansion
    c = (
        minhash_lsh_dedup(docs, threshold=0.5, collapse=True, collapse_cap=1)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    pd.testing.assert_frame_equal(a, c)
    cl = dict(zip(a["doc_id"], a["cluster"]))
    clone_ids = list(range(30, 530))
    assert len({cl[i] for i in clone_ids}) == 1  # clones one cluster
    assert cl[530] == cl[30]  # near-dup joins the clone cluster
    assert cl[533] == cl[534] == 533  # standalone pair, rep-labeled


def test_minhash_collapse_distributed_id_domains(ray_session):
    """Round-3 review repros: the distributed collapse/expansion path
    must handle negative doc ids, ids above 2^53 (float64-unsafe), and
    non-int64 id dtypes — identically to the broadcast path."""
    import pyarrow as pa
    import ray.data

    from geotools_ray.ops.dedup import minhash_lsh_dedup

    base = "alpha bravo charlie delta echo foxtrot golf hotel india"
    other = "kilo lima mike november oscar papa quebec romeo sierra"

    def run(ids, dtype):
        t = pa.table(
            {"doc_id": pa.array(ids, dtype),
             "text": [base, base, base, other]}
        )
        ds = ray.data.from_arrow(t).materialize()
        a = (
            minhash_lsh_dedup(ds, threshold=0.6, collapse_cap=1)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        b = (
            minhash_lsh_dedup(ds, threshold=0.6)
            .to_pandas().sort_values("doc_id").reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b)
        return a

    # negative ids: three clones cluster under the min (most negative)
    out = run([-100, -99, -98, 5], pa.int64())
    assert out["doc_id"].tolist() == [-100, -99, -98]
    assert out["cluster"].tolist() == [-100, -100, -100]

    # ids above 2^53: odd low bits survive (no float64 round-trip)
    big = 2**53
    out = run([big + 1, big + 3, big + 5, 7], pa.int64())
    assert out["doc_id"].tolist() == [big + 1, big + 3, big + 5]
    assert set(out["cluster"]) == {big + 1}

    # int32 id column: no schema crash, same clustering
    out = run([10, 11, 12, 13], pa.int32())
    assert out["cluster"].tolist() == [10, 10, 10]


def test_fingerprint64_query_parity(ray_session, tmp_path):
    """q_fingerprint64: (fp_hi, fp_lo) halves reassemble to the scalar
    FNV-1a-64 per document, empty strings hash to the bare seed, and
    non-ASCII text is rejected loudly (the SQL oracle folds codepoints,
    so silent divergence is forbidden)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from geotools_ray.kernels.text import stable_hash64
    from geotools_ray.queries_text import q_fingerprint64

    texts = ["hello world", "", "a", "the quick brown fox " * 40]
    t = pa.table({"doc_id": pa.array(range(len(texts)), pa.int64()),
                  "text": pa.array(texts)})
    pq.write_table(t, tmp_path / "documents.parquet")
    out = q_fingerprint64(str(tmp_path)).to_pandas().sort_values("doc_id")
    got = (out["fp_hi"].to_numpy().astype(np.uint64) << np.uint64(32)) | \
        out["fp_lo"].to_numpy().astype(np.uint64)
    want = np.array([stable_hash64(s.encode()) for s in texts], dtype=np.uint64)
    assert (got == want).all()
    assert got[1] == np.uint64(0xCBF29CE484222325)  # empty -> seed

    pq.write_table(
        pa.table({"doc_id": pa.array([0], pa.int64()),
                  "text": pa.array(["café"])}),
        tmp_path / "documents.parquet",
    )
    with pytest.raises(Exception, match="ASCII"):
        q_fingerprint64(str(tmp_path)).to_pandas()


def test_ngram_oversize_bucket_tiled_exact(ray_session):
    """max_bucket far below every bucket size: the tiled enumeration
    must emit the IDENTICAL pair set + jaccard values as the untiled
    exact path (no drops, no duplicates)."""
    from geotools_ray.ops.dedup import ngram_jaccard_pairs

    docs = make_docs(ray_session)
    ref = ngram_jaccard_pairs(
        docs, n=3, threshold=0.3, route_budget=None
    ).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    tiled = ngram_jaccard_pairs(
        docs, n=3, threshold=0.3, route_budget=None, max_bucket=2
    ).to_pandas().sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ref, tiled)
    assert len(ref) > 0


def test_ngram_auto_route_to_lsh(ray_session):
    """census_mod=1 (census counts every bucket exactly) + a tiny
    route_budget forces the LSH route: planted near-dups still surface
    with their EXACT jaccard values, and every emitted pair passes the
    exact threshold."""
    from geotools_ray.ops.dedup import ngram_jaccard_pairs

    docs = make_docs(ray_session)
    exact = ngram_jaccard_pairs(docs, n=3, threshold=0.5, route_budget=None).to_pandas()
    routed = ngram_jaccard_pairs(
        docs, n=3, threshold=0.5, route_budget=1, census_mod=1
    ).to_pandas()
    ep = {(a, b): j for a, b, j in zip(exact["id_a"], exact["id_b"], exact["jaccard"])}
    rp = {(a, b): j for a, b, j in zip(routed["id_a"], routed["id_b"], routed["jaccard"])}
    # routed output is a subset (banding recall) with identical values;
    # at this corpus size the planted pairs must all survive
    for k, j in rp.items():
        assert k in ep and j == pytest.approx(ep[k])
    for k in [(0, 100), (0, 101), (1, 102)]:
        assert k in rp
    assert rp[(1, 102)] == pytest.approx(1.0)


def test_ngram_census_estimates_volume(ray_session):
    """The bucket-sampled census with census_mod=1 equals the true
    Sum C(df,2) computed brute-force from the shingle buckets."""
    import ray.data

    from geotools_ray.ops.dedup import _candidate_census, shingle_sets

    docs = make_docs(ray_session)
    sets = shingle_sets(docs, shingle_k=3).to_pandas()
    from collections import Counter

    cnt = Counter()
    for sh in sets["sh"]:
        for v in sh:
            cnt[int(v)] += 1
    want = sum(c * (c - 1) // 2 for c in cnt.values())

    def explode(t):
        import pyarrow as pa
        import numpy as np
        col = t["sh"]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        offs = col.offsets.to_numpy(zero_copy_only=False)
        flat = col.values.to_numpy(zero_copy_only=False)
        return pa.table({"shingle": flat[offs[0]:offs[-1]].astype(np.int64)})

    exploded = shingle_sets(docs, shingle_k=3).map_batches(explode, batch_format="pyarrow")
    assert _candidate_census(exploded, 1) == want
