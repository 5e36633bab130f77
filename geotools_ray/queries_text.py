"""Training-data-pipeline queries over documents / embeddings / events:
dedup, text analysis, ANN similarity search, windowed/sessionized
events.  Same lockstep-with-DuckDB discipline as queries.py.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from .queries import _round_away

R6 = 6


# ---------------------------------------------------------------------------
# documents

def q_dedup_key(sf_dir: str):
    """U4 exact dedup by derived key (lang, token count): keep the
    min doc_id per group — hash-partitioned groupby + first."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"])

    def key(t: pa.Table) -> pa.Table:
        ntok = pc.list_value_length(pc.split_pattern(t["text"], pattern=" "))
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "lang": t["lang"],
                "n_tokens": ntok.cast(pa.int64()),
            }
        )

    from ray.data.aggregate import Count, Min

    return (
        ds.map_batches(key, batch_format="pyarrow")
        .groupby(["lang", "n_tokens"])
        .aggregate(Min("doc_id", alias_name="keep_doc_id"), Count(alias_name="n_dups"))
    )


SQL_DEDUP_KEY = """
SELECT lang, len(str_split(text, ' '))::BIGINT AS n_tokens,
       min(doc_id) AS keep_doc_id, count(*) AS n_dups
FROM documents GROUP BY 1, 2"""


def q_token_count(sf_dir: str):
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        ntok = pc.list_value_length(pc.split_pattern(t["text"], pattern=" "))
        return pa.table({"doc_id": t["doc_id"], "n_tokens": ntok.cast(pa.int64())})

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_TOKEN_COUNT = "SELECT doc_id, len(str_split(text, ' '))::BIGINT AS n_tokens FROM documents"


def q_quality(sf_dir: str):
    """Quality-score features: lengths and character-class ratios."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        s = pd.Series(t["text"].to_pylist())
        n = s.str.len().to_numpy(dtype=np.float64)
        alpha = s.str.replace(r"[^a-zA-Z]", "", regex=True).str.len().to_numpy(dtype=np.float64)
        digit = s.str.replace(r"[^0-9]", "", regex=True).str.len().to_numpy(dtype=np.float64)
        spaces = (n - s.str.replace(" ", "", regex=False).str.len().to_numpy(dtype=np.float64))
        with np.errstate(divide="ignore", invalid="ignore"):
            out = pa.table(
                {
                    "doc_id": t["doc_id"],
                    "n_chars": n.astype(np.int64),
                    "alpha_ratio": _round_away(np.where(n > 0, alpha / n, 0.0), R6),
                    "digit_ratio": _round_away(np.where(n > 0, digit / n, 0.0), R6),
                    "space_ratio": _round_away(np.where(n > 0, spaces / n, 0.0), R6),
                }
            )
        return out

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_QUALITY = f"""
SELECT doc_id, length(text)::BIGINT AS n_chars,
  round(CASE WHEN length(text) > 0 THEN length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE / length(text) ELSE 0.0 END, {R6}) AS alpha_ratio,
  round(CASE WHEN length(text) > 0 THEN length(regexp_replace(text, '[^0-9]', '', 'g'))::DOUBLE / length(text) ELSE 0.0 END, {R6}) AS digit_ratio,
  round(CASE WHEN length(text) > 0 THEN (length(text) - length(replace(text, ' ', '')))::DOUBLE / length(text) ELSE 0.0 END, {R6}) AS space_ratio
FROM documents"""


LANG_MARKERS_SQL = {
    "en": [" the ", " and ", " of "],
    "fr": [" le ", " la ", " et "],
    "de": [" der ", " und ", " die "],
    "es": [" el ", " de ", " y "],
}


def q_langid(sf_dir: str):
    """Marker-word language ID (n-gram heuristic, SQL-checkable)."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        s = " " + pd.Series(t["text"].to_pylist()).str.lower() + " "
        scores = {}
        for lang, markers in LANG_MARKERS_SQL.items():
            total = np.zeros(len(s), dtype=np.int64)
            for m in markers:
                total += (
                    (s.str.len() - s.str.replace(m, "", regex=False).str.len()) // len(m)
                ).to_numpy(dtype=np.int64)
            scores[lang] = total
        en, fr, de, es = scores["en"], scores["fr"], scores["de"], scores["es"]
        pred = np.where(
            (en >= fr) & (en >= de) & (en >= es) & (en > 0),
            "en",
            np.where(
                (fr >= de) & (fr >= es) & (fr > 0),
                "fr",
                np.where((de >= es) & (de > 0), "de", np.where(es > 0, "es", "und")),
            ),
        )
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "en_score": en,
                "fr_score": fr,
                "de_score": de,
                "es_score": es,
                "pred_lang": pred,
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


def _marker_count_sql(markers: list[str]) -> str:
    padded = "(' ' || lower(text) || ' ')"
    terms = [
        f"((length({padded}) - length(replace({padded}, '{m}', ''))) // {len(m)})" for m in markers
    ]
    return "(" + " + ".join(terms) + ")::BIGINT"


SQL_LANGID = f"""
WITH s AS (
  SELECT doc_id,
    {_marker_count_sql(LANG_MARKERS_SQL["en"])} AS en_score,
    {_marker_count_sql(LANG_MARKERS_SQL["fr"])} AS fr_score,
    {_marker_count_sql(LANG_MARKERS_SQL["de"])} AS de_score,
    {_marker_count_sql(LANG_MARKERS_SQL["es"])} AS es_score
  FROM documents)
SELECT doc_id, en_score, fr_score, de_score, es_score,
  CASE WHEN en_score >= fr_score AND en_score >= de_score AND en_score >= es_score AND en_score > 0 THEN 'en'
       WHEN fr_score >= de_score AND fr_score >= es_score AND fr_score > 0 THEN 'fr'
       WHEN de_score >= es_score AND de_score > 0 THEN 'de'
       WHEN es_score > 0 THEN 'es' ELSE 'und' END AS pred_lang
FROM s"""


def q_fingerprint(sf_dir: str):
    """Document fingerprint = md5 (matches DuckDB md5())."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        fps = [hashlib.md5(x.encode("utf-8")).hexdigest() for x in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"], "fp": pa.array(fps)})

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_FINGERPRINT = "SELECT doc_id, md5(text) AS fp FROM documents"


def q_fingerprint64(sf_dir: str):
    """Vectorized document fingerprint: seed-0 FNV-1a-64 over the
    UTF-8 bytes via `kernels.text.stable_hash64_array` — the bulk
    fingerprint path (O(max_len) numpy passes across rows instead of a
    Python `hashlib` call per document; the same kernel the dedup /
    footprint families hash with).  md5 (`q_fingerprint`) stays as the
    reference-parity fixture; this one is what a 100-TB corpus runs.

    Output splits the uint64 into (fp_hi, fp_lo) 32-bit halves so the
    value domain stays DOUBLE-exact for the packed small_suite melt.
    Oracle parity contract: the SQL side folds per CHARACTER with
    ord(), which equals the UTF-8 byte only for ASCII text — the
    documents fixture is ASCII by construction (asserted here so a
    non-ASCII fixture fails loudly on the engine side, not as a silent
    hash mismatch)."""
    from .kernels.text import stable_hash64_array

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])

    def fn(t: pa.Table) -> pa.Table:
        if not pc.all(pc.string_is_ascii(t["text"])).as_py():
            raise ValueError(
                "fingerprint64 oracle parity requires ASCII text "
                "(SQL ord() folds codepoints, the kernel folds UTF-8 bytes)"
            )
        h = stable_hash64_array(t["text"])
        return pa.table(
            {
                "doc_id": t["doc_id"],
                "fp_hi": (h >> np.uint64(32)).astype(np.int64),
                "fp_lo": (h & np.uint64(0xFFFFFFFF)).astype(np.int64),
            }
        )

    return ds.map_batches(fn, batch_format="pyarrow")


# FNV-1a-64 restated in SQL: HUGEINT (int128) arithmetic emulates the
# wrapping 64-bit multiply via % 2^64; string_split(text, '') yields
# one element per character and ord() its codepoint (== UTF-8 byte on
# the ASCII fixture). Empty documents hash to the bare seed.
SQL_FINGERPRINT64 = """
WITH h AS (
  SELECT doc_id,
    CASE WHEN length(text) = 0 THEN 14695981039346656037::HUGEINT
    ELSE list_reduce(
      list_prepend(14695981039346656037::HUGEINT,
                   list_transform(string_split(text, ''), c -> ord(c)::HUGEINT)),
      (acc, c) -> (xor(acc, c) * 1099511628211::HUGEINT)
                  % 18446744073709551616::HUGEINT)
    END AS fp
  FROM documents)
SELECT doc_id,
  CAST(fp // 4294967296 AS BIGINT) AS fp_hi,
  CAST(fp % 4294967296 AS BIGINT) AS fp_lo
FROM h"""


# ---------------------------------------------------------------------------
# embeddings: ANN / near-dup

def _load_queries(sf_dir: str, n: int = 5):
    import pyarrow.parquet as pq

    # row-group-pruned read: a 5-row lookup must not materialize the
    # corpus on the driver
    t = pq.read_table(
        f"{sf_dir}/embeddings.parquet",
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", n)],
    )
    from .ops.ann import _stack

    q = _stack(t["embedding"])
    return t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64), q


def q_ann_bruteforce(sf_dir: str, k: int = 10):
    """Brute-force cosine top-k per query vector (queries = vec_id < 5),
    rank ordered by (round(sim, 6) desc, vec_id). Partial top-k per
    batch -> tiny merge; the matrix product is the batch hot loop."""
    from .ops.ann import brute_force_topk

    qids, qmat = _load_queries(sf_dir)
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    out = brute_force_topk(ds, qmat, qids, k=k)
    # sim itself is engine-noise-sensitive (f32 SIMD accumulation in
    # the oracle); the rank order is stable -> emit rank only
    return out.select_columns(["q_id", "vec_id", "rank"])


SQL_ANN = """
WITH q AS (SELECT vec_id AS q_id, embedding AS qe FROM embeddings WHERE vec_id < 5),
sims AS (
  SELECT q.q_id, e.vec_id,
         list_cosine_similarity(e.embedding, q.qe) AS sim
  FROM embeddings e CROSS JOIN q),
ranked AS (
  SELECT q_id, vec_id,
         row_number() OVER (PARTITION BY q_id ORDER BY sim DESC, vec_id) AS rank
  FROM sims)
SELECT q_id, vec_id, rank FROM ranked WHERE rank <= 10"""


def q_embed_pairs(sf_dir: str, threshold: float = 0.35):
    """Embedding near-dup pair mining: all (i < j) pairs with raw
    cosine >= threshold (no rounding on either side — the oracle SQL
    compares the raw similarity too; the pair SET is what's stable).
    Blocked matmul of each batch against the full
    (broadcast) normalized matrix — O(n^2) work without an O(n^2) shuffle."""
    import pyarrow.parquet as pq

    t = pq.read_table(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    vid_all = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    from .ops.ann import _stack

    E = _stack(t["embedding"])
    En = E / np.linalg.norm(E, axis=1, keepdims=True)
    ref = ray.put((vid_all, En))
    ds = ray.data.read_parquet(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])

    def fn(batch: pa.Table) -> pa.Table:
        vids, Mn = ray.get(ref)
        vid = batch["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        from .ops.ann import _stack

        B = _stack(batch["embedding"])
        Bn = B / np.linalg.norm(B, axis=1, keepdims=True)
        sims = Bn @ Mn.T
        bi, mj = np.nonzero((sims >= threshold) & (vid[:, None] < vids[None, :]))
        # sim values differ between engines at ~1e-7 (f32 SIMD oracle);
        # the pair SET at a threshold far from the sim distribution's
        # noise floor is stable -> emit the pair ids only
        return pa.table({"id_a": vid[bi], "id_b": vids[mj]})

    return ds.map_batches(fn, batch_format="pyarrow")


SQL_EMBED_PAIRS = """
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.35"""


def q_embed_lsh(sf_dir: str, threshold: float = 0.9):
    """Embedding near-dup SCALE path: random-hyperplane LSH buckets +
    in-bucket exact-cosine verify (ops/ann.embedding_near_dup_pairs —
    no driver matrix, no all-pairs shuffle). The corpus is augmented
    with deterministic planted duplicates (vec_id + 100000, identical
    embedding, for vec_id < 50) so the high-threshold regime the LSH
    config targets has ground-truth pairs; identical sign bits land in
    identical buckets, so recall on the planted set is exactly 1 and
    the SQL oracle hash-matches (max natural cosine in the synthetic
    table is ~0.60, far under the 0.9 threshold)."""
    from .ops.ann import embedding_near_dup_pairs

    # block count sized to the DATA (2k vectors): the default split
    # (2x cpus = 64 blocks of ~16 rows) makes every downstream stage
    # pay 100+ task launches per barrier
    base = ray.data.read_parquet(
        f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"],
        override_num_blocks=8,
    )

    def planted(t: pa.Table) -> pa.Table:
        keep = pc.less(t["vec_id"], 50)
        d = t.filter(keep)
        vid = pc.add(d["vec_id"], 100000)
        return pa.table({"vec_id": vid, "embedding": d["embedding"]})

    allv = base.union(base.map_batches(planted, batch_format="pyarrow"))
    # shuffle width sized to the corpus (~2k vectors at sf0.1): wide
    # parts just multiply barrier tasks; at real scale leave the
    # default (2x cpus) or size to rows/part-byte budget
    out = embedding_near_dup_pairs(allv, threshold=threshold, num_parts=8)

    def fin(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"id_a": df["id_a"].astype(np.int64), "id_b": df["id_b"].astype(np.int64)}
        )

    return out.map_batches(fin, batch_format="pandas")


SQL_EMBED_LSH = """
WITH allv AS (
  SELECT vec_id, embedding FROM embeddings
  UNION ALL
  SELECT vec_id + 100000 AS vec_id, embedding FROM embeddings WHERE vec_id < 50)
SELECT a.vec_id AS id_a, b.vec_id AS id_b
FROM allv a JOIN allv b ON a.vec_id < b.vec_id
WHERE list_cosine_similarity(a.embedding, b.embedding) >= 0.9"""


# ---------------------------------------------------------------------------
# events: windows / sessionization (M8 analog, §2.11)

def q_window_hourly(sf_dir: str):
    """Tumbling 1h window per event_type (groupby on truncated ts)."""
    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"])

    def fn(t: pa.Table) -> pa.Table:
        us = t["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
        hour = (us // 3_600_000_000) * 3600  # int64 epoch seconds
        return pa.table(
            {
                "event_type": t["event_type"],
                "hour_ts": pa.array(hour),
                "value": t["value"],
            }
        )

    from ray.data.aggregate import Count, Sum

    out = (
        ds.map_batches(fn, batch_format="pyarrow")
        .groupby(["event_type", "hour_ts"])
        .aggregate(Count(alias_name="n"), Sum("value", alias_name="sum_value"))
    )

    def rnd(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("sum_value")
        return t.set_column(
            i, "sum_value", pa.array(_round_away(t["sum_value"].to_numpy(zero_copy_only=False), R6))
        )

    return out.map_batches(rnd, batch_format="pyarrow")


SQL_WINDOW_HOURLY = f"""
SELECT event_type, CAST(floor(epoch(date_trunc('hour', ts))) AS BIGINT) AS hour_ts, count(*) AS n,
       round(sum(value), {R6}) AS sum_value
FROM events GROUP BY 1, 2"""


def q_sessionize(sf_dir: str, gap_s: int = 600):
    """M8 flight-line segmentation analog: split each user's ordered
    event stream on gaps > gap_s; emit sessions-per-user + event count.
    grouped_map (hash-partition by user, ONE shuffle) with a
    vectorized multi-user sessionizer — per-key map_groups pays
    ~1-2 ms of Python dispatch per user (stages/grouped.py header),
    which collapses at real user cardinality."""
    from .stages.grouped import grouped_map

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id", "ts", "event_id"])
    gap_us = gap_s * 1_000_000

    def per_part(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "n_sessions": pd.Series(dtype=np.int64),
                    "n_events": pd.Series(dtype=np.int64),
                }
            )
        df = df.sort_values(["user_id", "ts", "event_id"])
        uid = df["user_id"].to_numpy()
        us = df["ts"].astype("int64").to_numpy()
        brk = np.ones(len(df), dtype=np.int64)
        brk[1:] = ((uid[1:] != uid[:-1]) | (np.diff(us) > gap_us)).astype(np.int64)
        uu, starts, counts = np.unique(uid, return_index=True, return_counts=True)
        return pd.DataFrame(
            {
                "user_id": uu,
                "n_sessions": np.add.reduceat(brk, starts),
                "n_events": counts.astype(np.int64),
            }
        )

    return grouped_map(ds, ["user_id"], per_part)


SQL_SESSIONIZE = """
WITH e AS (
  SELECT user_id, ts,
    CASE WHEN lag(ts) OVER w IS NULL
           OR date_diff('microsecond', lag(ts) OVER w, ts) > 600000000 THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id))
SELECT user_id, sum(new_sess)::BIGINT AS n_sessions, count(*) AS n_events
FROM e GROUP BY user_id"""


def q_heavy_hitters(sf_dir: str, threshold_frac: float = 0.008):
    """EXACT heavy hitters over events.user_id via sketch-then-verify
    (ops/sketch.py): a mergeable Misra-Gries pass yields a candidate
    superset (deterministic — a key at the threshold cannot be
    missed, unlike a sampled probe), then one narrow verify pass
    counts only the candidates exactly and applies
    count >= ceil(threshold_frac * n). The shuffle moves
    O(batches x candidates) partial rows, never a per-key count table
    — the 100-TB shape for 'which keys are hot'."""
    from .ops.sketch import heavy_hitters_exact

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["user_id"])
    return heavy_hitters_exact(ds, ["user_id"], threshold_frac)


# the ceil threshold is computed in DOUBLE on both sides (python
# math.ceil(0.008 * n) / duckdb CEIL(0.008 * n)) so the cut lands on
# the identical integer
SQL_HEAVY_HITTERS = """
SELECT user_id, count(*) AS cnt FROM events GROUP BY user_id
HAVING count(*) >= CAST(CEIL(0.008 * (SELECT count(*) FROM events)) AS BIGINT)"""


def q_global_quantiles(sf_dir: str):
    """Exact global nearest-rank-up quantiles of events.value WITHOUT
    a global sort (ops/sketch.exact_quantiles): a mergeable weighted-
    point summary brackets each target rank, then one verify pass
    counts below-bracket rows exactly and reads the k-th value off the
    collapsed (value, count) window — self-certifying (the sketch only
    sizes the window), two streaming passes total. At 10^12 rows this
    replaces the engine's single most expensive all-to-all (ds.sort)
    for order statistics."""
    from .ops.sketch import exact_quantiles

    ds = ray.data.read_parquet(f"{sf_dir}/events.parquet", columns=["value"])
    return exact_quantiles(ds, "value", [0.25, 0.5, 0.75, 0.99])


# nearest-rank-up: the value at row_number ceil(q*n) in value order —
# identical double-precision ceil on both sides
SQL_GLOBAL_QUANTILES = """
WITH r AS (SELECT value AS v, row_number() OVER (ORDER BY value) AS rn FROM events),
     n AS (SELECT count(*) AS n FROM events)
SELECT q, (SELECT min(v) FROM r
           WHERE rn >= CAST(CEIL(q * (SELECT n FROM n)) AS BIGINT)) AS value
FROM (VALUES (0.25), (0.5), (0.75), (0.99)) AS t(q)"""


# ---------------------------------------------------------------------------
# events: distributed keyed as-of join (ops/asof.py — the custom
# operator Ray Data lacks; DuckDB ASOF JOIN is the oracle)

_ASOF_TOL_US = 86_400_000_000  # 24 h


def _asof_sides(sf_dir: str):
    """left = view events (event_id, user_id, ts_us); right = raw
    click events as (user_id, ts_us, r_value). Dedupe of equal
    (user_id, ts_us) clicks to max(value) — the oracle's GROUP BY —
    happens INSIDE the op via tie_cols=['r_value'] (largest tie wins),
    so the right side needs no shuffle of its own. Timestamps go
    int64-micros at the read so every downstream difference is exact
    integer arithmetic (epoch micros are NOT float64-exact)."""

    from .stages import tpch

    def keep(which: str, cols: dict):
        def fn(t: pa.Table) -> pa.Table:
            t = t.filter(pc.equal(t["event_type"], which))
            return pa.table({name: t[src] for name, src in cols.items()})

        return fn

    ev = tpch.read_events(sf_dir)
    left = ev.map_batches(
        keep("view", {"event_id": "event_id", "user_id": "user_id", "ts_us": "ts_us"}),
        batch_format="pyarrow",
    )
    right = ev.map_batches(
        keep("click", {"user_id": "user_id", "ts_us": "ts_us", "r_value": "value"}),
        batch_format="pyarrow",
    )
    return left, right


def _events_parts(sf_dir: str) -> int:
    """Shuffle width for the events-derived keyed exchanges, sized to
    the table's footer row count (stages/grouped.parts_for_rows)."""
    from .stages import tpch
    from .stages.grouped import parts_for_rows

    return parts_for_rows(tpch.table_rows(sf_dir, "events"))


def q_asof_join(sf_dir: str):
    """For every 'view' event, the user's most recent at-or-before
    'click' (backward as-of; matched rows only — LEFT-join nulls,
    tolerance and direction are driver-checked via asof_rollup)."""
    from .ops.asof import asof_join

    left, right = _asof_sides(sf_dir)
    ds = asof_join(
        left,
        right,
        key="user_id",
        on="ts_us",
        right_cols=["r_value"],
        tie_cols=["r_value"],
        r_on="r_ts_us",
        num_parts=_events_parts(sf_dir),
    )

    def fin(t: pa.Table) -> pa.Table:
        t = t.filter(pc.is_valid(t["r_ts_us"]))
        return pa.table(
            {
                "event_id": t["event_id"],
                "user_id": t["user_id"],
                "ts_us": t["ts_us"],
                "r_ts_us": t["r_ts_us"],
                "r_value": pa.array(
                    _round_away(
                        t["r_value"].to_numpy(zero_copy_only=False), R6
                    )
                ),
            }
        )

    return ds.map_batches(fin, batch_format="pyarrow")


SQL_ASOF_JOIN = """
WITH r AS (SELECT user_id, ts, max(value) AS rv FROM events
           WHERE event_type = 'click' GROUP BY 1, 2),
     l AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'view')
SELECT l.event_id, l.user_id, epoch_us(l.ts) AS ts_us,
       epoch_us(r.ts) AS r_ts_us, round(r.rv, 6) AS r_value
FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts >= r.ts"""


def q_asof_rollup(sf_dir: str):
    """Per-user rollup of three as-of variants — backward, backward
    with a 24 h tolerance, forward — exercising LEFT-join nulls,
    tolerance and direction in one compact all-numeric surface (packed
    into the driver-checked small_suite slot). All three variants plus
    the per-user aggregate resolve in asof_join_multi's SINGLE shuffle:
    each partition sorts once, runs three local merges, and rolls its
    (whole) users up in the fused finalize."""
    from .ops.asof import asof_join_multi

    left, right = _asof_sides(sf_dir)

    def roll(t: pa.Table) -> pa.Table:
        # null-mask int64 `on` gaps IN ARROW: a pandas float64 detour
        # would round micro-timestamps (not float64-exact)
        def fill(col, dtype=pa.int64(), zero=0):
            ok = pc.is_valid(col)
            return ok, pc.if_else(ok, col, pa.scalar(zero, dtype))

        ts = t["ts_us"].to_numpy(zero_copy_only=False)
        okb, rb = fill(t["r_b"])
        okt, _ = fill(t["r_t"])
        okf, rf = fill(t["r_f"])
        mb = okb.to_numpy(zero_copy_only=False).astype(np.int64)
        mf = okf.to_numpy(zero_copy_only=False).astype(np.int64)
        _, rv = fill(t["r_value"], pa.float64(), 0.0)
        g = pd.DataFrame(
            {
                "user_id": t["user_id"].to_numpy(zero_copy_only=False),
                "n_views": np.ones(len(t), dtype=np.int64),
                "n_matched": mb,
                "sum_rv": rv.to_numpy(zero_copy_only=False) * mb,
                "sum_gap_us": (
                    ts - rb.to_numpy(zero_copy_only=False)
                ) * mb,
                "n_tol": okt.to_numpy(zero_copy_only=False).astype(np.int64),
                "n_fwd": mf,
                "sum_fwd_gap_us": (
                    rf.to_numpy(zero_copy_only=False) - ts
                ) * mf,
            }
        )
        out = g.groupby("user_id", sort=False).sum().reset_index()
        out["sum_rv"] = _round_away(out["sum_rv"].to_numpy(), R6)
        return pa.Table.from_pandas(out, preserve_index=False)

    return asof_join_multi(
        left,
        right,
        key="user_id",
        on="ts_us",
        right_cols=["r_value"],
        num_parts=_events_parts(sf_dir),
        specs=[
            {"direction": "backward", "r_on": "r_b"},
            {
                "direction": "backward",
                "tolerance": _ASOF_TOL_US,
                "r_on": "r_t",
                "right_cols": [],
            },
            {"direction": "forward", "r_on": "r_f", "right_cols": []},
        ],
        tie_cols=["r_value"],
        finalize=roll,
    )


SQL_ASOF_ROLLUP = f"""
WITH r AS (SELECT user_id, ts, max(value) AS rv FROM events
           WHERE event_type = 'click' GROUP BY 1, 2),
     l AS (SELECT event_id, user_id, ts FROM events WHERE event_type = 'view'),
     b AS (SELECT l.user_id, epoch_us(l.ts) AS t, epoch_us(r.ts) AS rt, r.rv
           FROM l ASOF LEFT JOIN r
           ON l.user_id = r.user_id AND l.ts >= r.ts),
     f AS (SELECT l.user_id, epoch_us(l.ts) AS t, epoch_us(r.ts) AS rt
           FROM l ASOF LEFT JOIN r
           ON l.user_id = r.user_id AND l.ts <= r.ts),
     -- integer sums CAST to BIGINT: duckdb's HUGEINT sum comes back
     -- float64 through .df(), and the canon's round(x, 6) is lossy
     -- above ~1e10 (x*1e6 exceeds float64's integer range) — both
     -- sides must take the exact int64 path
     ab AS (SELECT user_id, count(*) AS n_views, count(rt) AS n_matched,
                   round(sum(CASE WHEN rt IS NOT NULL THEN rv ELSE 0 END), 6)
                     AS sum_rv,
                   CAST(sum(CASE WHEN rt IS NOT NULL THEN t - rt ELSE 0 END)
                     AS BIGINT) AS sum_gap_us,
                   CAST(sum(CASE WHEN t - rt <= {_ASOF_TOL_US} THEN 1 ELSE 0
                     END) AS BIGINT) AS n_tol
            FROM b GROUP BY 1),
     af AS (SELECT user_id, count(rt) AS n_fwd,
                   CAST(sum(CASE WHEN rt IS NOT NULL THEN rt - t ELSE 0 END)
                     AS BIGINT) AS sum_fwd_gap_us
            FROM f GROUP BY 1)
SELECT ab.user_id, n_views, n_matched, sum_rv, sum_gap_us, n_tol,
       n_fwd, sum_fwd_gap_us
FROM ab JOIN af ON ab.user_id = af.user_id"""


# ---------------------------------------------------------------------------
# events: keyed ordered-window analytics (ops/window.py — SQL window
# functions OVER (PARTITION BY user ORDER BY ts) as one grouped shuffle)


def q_window_rank(sf_dir: str):
    """Per-user ordered event analytics: rank, previous-event gap, and
    running value sum/min/max — every SQL window family (row_number,
    lag, cumulative aggregates) in one keyed_window shuffle.
    Timestamps go int64-micros at the read (exact integer gaps);
    (ts, event_id) is the total order, matching the oracle's ORDER BY."""
    from .ops.window import keyed_window

    from .stages import tpch

    ds = tpch.read_events(sf_dir).select_columns(
        ["user_id", "event_id", "ts_us", "value"]
    )

    out = keyed_window(
        ds,
        key="user_id",
        on="ts_us",
        tie_cols=["event_id"],
        value_col="value",
        outputs=("row_number", "gap", "run_sum", "run_min", "run_max"),
        num_parts=_events_parts(sf_dir),
    )

    def fin(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "rn": t["row_number"],
                "gap_us": t["gap"],
                "run_sum": pa.array(
                    _round_away(
                        t["run_sum_value"].to_numpy(zero_copy_only=False), R6
                    )
                ),
                "run_min": pa.array(
                    _round_away(
                        t["run_min_value"].to_numpy(zero_copy_only=False), R6
                    )
                ),
                "run_max": pa.array(
                    _round_away(
                        t["run_max_value"].to_numpy(zero_copy_only=False), R6
                    )
                ),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_WINDOW_RANK = """
SELECT user_id, event_id,
       row_number() OVER w AS rn,
       COALESCE(epoch_us(ts) - lag(epoch_us(ts)) OVER w, 0) AS gap_us,
       round(sum(value) OVER w, 6) AS run_sum,
       round(min(value) OVER w, 6) AS run_min,
       round(max(value) OVER w, 6) AS run_max
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id
             ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)"""


def q_topk_per_user(sf_dir: str, k: int = 3):
    """Top-k events by value per user — the per-group top-N primitive
    (best captions per image / top docs per domain), expressed as
    keyed_window rank over on = -value (float negation is exact, so
    ascending -value IS descending value) with event_id as the total
    tie-break; one grouped shuffle, no global sort."""
    from .ops.window import keyed_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "neg_value": pc.negate(t["value"]),
                "value": t["value"],
            }
        )

    from .stages import tpch

    ds = tpch.read_events(sf_dir).map_batches(prep, batch_format="pyarrow")

    out = keyed_window(
        ds,
        key="user_id",
        on="neg_value",
        tie_cols=["event_id"],
        outputs=("row_number",),
        keep_cols=["value"],
        num_parts=_events_parts(sf_dir),
    )

    def fin(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less_equal(t["row_number"], pa.scalar(k, pa.int64())))
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "value": pa.array(
                    _round_away(t["value"].to_numpy(zero_copy_only=False), R6)
                ),
                "rn": t["row_number"],
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_TOPK_PER_USER = """
SELECT user_id, event_id, round(value, 6) AS value, rn
FROM (SELECT user_id, event_id, value,
             row_number() OVER (PARTITION BY user_id
                                ORDER BY value DESC, event_id) AS rn
      FROM events)
WHERE rn <= 3"""


_TRAIL_US = 3_600_000_000  # 1 h


def q_window_trailing(sf_dir: str):
    """Trailing 1 h RANGE-window aggregates per user (count / sum /
    min / max of value over [ts - 1h, ts]) — the streaming-window
    feature primitive, one grouped shuffle, windows resolved by
    vectorized searchsorted + reduceat (ops/window.py). Peer rows
    (equal ts) share identical outputs per SQL RANGE semantics."""
    from .ops.window import keyed_window

    def prep(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "ts_us": t["ts"].cast(pa.timestamp("us")).cast(pa.int64()),
                "value": t["value"],
            }
        )

    from .stages import tpch

    ds = tpch.read_events(sf_dir).select_columns(
        ["user_id", "event_id", "ts_us", "value"]
    )

    out = keyed_window(
        ds,
        key="user_id",
        on="ts_us",
        tie_cols=["event_id"],
        value_col="value",
        outputs=("trail_count", "trail_sum", "trail_min", "trail_max"),
        trail_window=_TRAIL_US,
        num_parts=_events_parts(sf_dir),
    )

    def fin(t: pa.Table) -> pa.Table:
        def r6(c):
            return pa.array(
                _round_away(t[c].to_numpy(zero_copy_only=False), R6)
            )

        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "trail_count": t["trail_count"],
                "trail_sum": r6("trail_sum_value"),
                "trail_min": r6("trail_min_value"),
                "trail_max": r6("trail_max_value"),
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_WINDOW_TRAILING = f"""
SELECT user_id, event_id,
       count(*) OVER w AS trail_count,
       round(sum(value) OVER w, 6) AS trail_sum,
       round(min(value) OVER w, 6) AS trail_min,
       round(max(value) OVER w, 6) AS trail_max
FROM events
WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts)
             RANGE BETWEEN {_TRAIL_US} PRECEDING AND CURRENT ROW)"""


def q_session_assign(sf_dir: str, gap_s: int = 600):
    """Assign every event to its session interval — operator
    COMPOSITION: gap-based session intervals (one grouped shuffle)
    feed the keyed as-of join as the right side (backward on session
    start), and since a user's sessions are non-overlapping and tile
    their events, greatest-start-at-or-before IS interval
    containment; the sess_end >= t filter is the defensive guard that
    keeps engine semantics aligned with the oracle's BETWEEN join."""
    from .ops.asof import asof_join
    from .stages.grouped import grouped_map

    gap_us = gap_s * 1_000_000

    from .stages import tpch

    ev = tpch.read_events(sf_dir).select_columns(
        ["user_id", "event_id", "ts_us"]
    )

    def intervals(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype=np.int64),
                    "ts_us": pd.Series(dtype=np.int64),
                    "sess_end": pd.Series(dtype=np.int64),
                    "sess_rank": pd.Series(dtype=np.int64),
                    "sess_n": pd.Series(dtype=np.int64),
                }
            )
        df = df.sort_values(["user_id", "ts_us", "event_id"])
        uid = df["user_id"].to_numpy()
        us = df["ts_us"].to_numpy()
        brk = np.ones(len(df), dtype=np.int64)
        brk[1:] = ((uid[1:] != uid[:-1]) | (np.diff(us) > gap_us)).astype(
            np.int64
        )
        starts = np.flatnonzero(brk)
        ends = np.append(starts[1:], len(df))
        # per-user session ordinal: cumulative breaks minus the
        # user's first session's cumulative position
        sess_cum = np.cumsum(brk)
        u_first = np.flatnonzero(
            np.concatenate([[True], uid[1:] != uid[:-1]])
        )
        ufirst_cum = np.repeat(sess_cum[u_first] - 1, np.add.reduceat(brk, u_first))
        return pd.DataFrame(
            {
                "user_id": uid[starts],
                "ts_us": us[starts],  # session start = asof `on`
                "sess_end": us[ends - 1],
                "sess_rank": sess_cum[starts] - ufirst_cum,
                "sess_n": (ends - starts).astype(np.int64),
            }
        )

    P = _events_parts(sf_dir)
    iv = grouped_map(ev, ["user_id"], intervals, num_parts=P)
    out = asof_join(
        ev,
        iv,
        key="user_id",
        on="ts_us",
        right_cols=["sess_end", "sess_rank", "sess_n"],
        r_on="sess_start",
        num_parts=P,
    )

    def fin(t: pa.Table) -> pa.Table:
        ok = pc.and_(
            pc.is_valid(t["sess_start"]),
            pc.less_equal(t["ts_us"], t["sess_end"]),
        )
        t = t.filter(ok)
        return pa.table(
            {
                "user_id": t["user_id"],
                "event_id": t["event_id"],
                "sess_start": t["sess_start"],
                "sess_end": t["sess_end"],
                "sess_rank": t["sess_rank"],
                "sess_n": t["sess_n"],
            }
        )

    return out.map_batches(fin, batch_format="pyarrow")


SQL_SESSION_ASSIGN = """
WITH e AS (
  SELECT user_id, event_id, epoch_us(ts) AS t,
    CASE WHEN lag(ts) OVER w IS NULL
           OR date_diff('microsecond', lag(ts) OVER w, ts) > 600000000
         THEN 1 ELSE 0 END AS new_sess
  FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts, event_id)),
 s AS (SELECT user_id, event_id, t,
              sum(new_sess) OVER (PARTITION BY user_id ORDER BY t, event_id
                                  ROWS UNBOUNDED PRECEDING) AS sess
       FROM e),
 iv AS (SELECT user_id, CAST(sess AS BIGINT) AS sess_rank,
               min(t) AS sess_start, max(t) AS sess_end,
               count(*) AS sess_n
        FROM s GROUP BY 1, 2)
SELECT ev.user_id, ev.event_id, iv.sess_start, iv.sess_end,
       iv.sess_rank, iv.sess_n
FROM (SELECT user_id, event_id, epoch_us(ts) AS t FROM events) ev
JOIN iv ON ev.user_id = iv.user_id
       AND ev.t BETWEEN iv.sess_start AND iv.sess_end"""


# ---------------------------------------------------------------------------
# bloom-pruned exact semi/anti equi-join (ops/bloom.py)

def _bloom_sides(sf_dir: str):
    """orders probe side vs a selective customer build side (one
    market segment, positive balance — ~1/10 of customers), keyed by
    custkey. The build side is renamed to the probe's key name (the
    op hashes the same column list on both sides)."""
    left = ray.data.read_parquet(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_totalprice"],
    )

    def prep_right(t: pa.Table) -> pa.Table:
        keep = pc.and_(
            pc.equal(t["c_mktsegment"], "BUILDING"),
            pc.greater(t["c_acctbal"], 0.0),
        )
        return pa.table({"o_custkey": t.filter(keep)["c_custkey"]})

    right = ray.data.read_parquet(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_mktsegment", "c_acctbal"]
    ).map_batches(prep_right, batch_format="pyarrow")
    return left, right


def q_bloom_semi(sf_dir: str):
    """Orders of positive-balance BUILDING customers via the bloom-
    pruned EXACT semi join: fixed-size filter built in one streaming
    pass over the build side, broadcast once, bloom-True rows verified
    by one hash-partitioned exact join (ops/bloom.py — output is
    invariant to num_bits; false positives verified away, false
    negatives impossible)."""
    from .ops.bloom import bloom_semi_join

    left, right = _bloom_sides(sf_dir)
    from .stages import tpch
    from .stages.grouped import parts_for_rows

    return bloom_semi_join(
        left, right, ["o_custkey"], num_bits=1 << 20,
        num_parts=parts_for_rows(tpch.table_rows(sf_dir, "orders")))


def q_bloom_anti(sf_dir: str):
    """Anti variant: bloom-False rows are PROVABLY non-matching and
    bypass the exchange entirely (~9/10 of orders here); only the
    bloom-True sliver pays the exact verify."""
    from .ops.bloom import bloom_semi_join

    left, right = _bloom_sides(sf_dir)
    from .stages import tpch
    from .stages.grouped import parts_for_rows

    return bloom_semi_join(
        left, right, ["o_custkey"], anti=True, num_bits=1 << 20,
        num_parts=parts_for_rows(tpch.table_rows(sf_dir, "orders")))


_BLOOM_RIGHT = """SELECT c_custkey FROM customer
WHERE c_mktsegment = 'BUILDING' AND c_acctbal > 0"""

SQL_BLOOM_SEMI = f"""
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE o_custkey IN ({_BLOOM_RIGHT})"""

SQL_BLOOM_ANTI = f"""
SELECT o_orderkey, o_custkey, o_totalprice FROM orders
WHERE o_custkey NOT IN ({_BLOOM_RIGHT})"""


# ---------------------------------------------------------------------------
# interval-overlap join (ops/interval.py) — intervals × intervals, the
# general case beyond the as-of join's point-in-interval


def _interval_sides(sf_dir: str, keyed: bool):
    """Deterministic interval sets derived from events: each side is a
    disjoint event slice whose window length is a pure function of
    event_id (SQL-reproducible). The keyed variant plants ~1% LONG
    intervals (27 h / 55 h) on each side so the broadcast tier runs in
    the driver-checked path, not just in pytest."""
    import pyarrow as pa
    import ray.data

    from .stages import tpch

    ev = tpch.read_events(sf_dir).select_columns(
        ["event_id", "user_id", "ts_us"]
    )

    def mk(mod, rem, span_mod, span_base, pref, long_mod=None, long_add=0):
        def f(t: pa.Table) -> pa.Table:
            eid = t["event_id"].to_numpy()
            keep = eid % mod == rem
            t2 = t.filter(pa.array(keep))
            eid = eid[keep]
            s = t2["ts_us"].to_numpy(zero_copy_only=False)
            span_s = eid % span_mod + span_base
            if long_mod is not None:
                span_s = span_s + np.where(eid % long_mod == rem, long_add, 0)
            cols = {
                f"{pref}_id": pa.array(eid),
                f"{pref}_s": pa.array(s),
                f"{pref}_e": pa.array(s + span_s * 1_000_000),
            }
            if keyed:
                cols["user_id"] = t2["user_id"]
            return pa.table(cols)

        return f

    if keyed:
        left = ev.map_batches(
            mk(2, 0, 3600, 300, "l", long_mod=97, long_add=100_000),
            batch_format="pyarrow")
        right = ev.map_batches(
            mk(2, 1, 7200, 600, "r", long_mod=89, long_add=200_000),
            batch_format="pyarrow")
    else:
        left = ev.map_batches(mk(3, 0, 900, 60, "l"), batch_format="pyarrow")
        right = ev.map_batches(mk(5, 1, 1800, 60, "r"), batch_format="pyarrow")
    return left, right


def _ov_us(ds):
    import pyarrow as pa

    def fin(t: pa.Table) -> pa.Table:
        ov = pa.array(
            t["ov_end"].to_numpy(zero_copy_only=False)
            - t["ov_start"].to_numpy(zero_copy_only=False))
        return t.drop_columns(["ov_start", "ov_end"]).append_column(
            "ov_us", ov)

    return ds.map_batches(fin, batch_format="pyarrow")


def q_interval_join(sf_dir: str):
    """Unkeyed interval-overlap join (closed intervals): event windows
    [ts, ts + f(event_id)] from two disjoint event slices; one
    bucketed grouped exchange, pairs emitted exactly once by the
    bucket holding max(start) (ops/interval.py)."""
    from .ops.interval import interval_join

    left, right = _interval_sides(sf_dir, keyed=False)
    res = interval_join(
        left, right,
        l_start="l_s", l_end="l_e", r_start="r_s", r_end="r_e",
        l_cols=["l_id"], r_cols=["r_id"],
        bucket_width=3_600_000_000,  # 1 h buckets; spans <= ~31 min
    )
    return _ov_us(res)


def q_interval_join_user(sf_dir: str):
    """Keyed variant (same user only) with planted ~1% 27 h/55 h
    intervals: long rows exceed long_span_buckets=24 and take the
    broadcast tier (collected once, ray.put, probed vectorized per
    batch); short×short stays in the bucketed exchange — all four
    pair tiers run and union."""
    from .ops.interval import interval_join

    left, right = _interval_sides(sf_dir, keyed=True)
    res = interval_join(
        left, right,
        l_start="l_s", l_end="l_e", r_start="r_s", r_end="r_e",
        l_cols=["l_id"], r_cols=["r_id"], key="user_id",
        bucket_width=3_600_000_000, long_span_buckets=24,
        num_parts=_events_parts(sf_dir),
    )
    return _ov_us(res)


_SQL_IV = """
l AS (SELECT event_id AS l_id, epoch_us(ts) AS s,
            epoch_us(ts) + (event_id % 900 + 60) * 1000000 AS e
      FROM events WHERE event_id % 3 = 0),
r AS (SELECT event_id AS r_id, epoch_us(ts) AS s,
            epoch_us(ts) + (event_id % 1800 + 60) * 1000000 AS e
      FROM events WHERE event_id % 5 = 1)"""

SQL_INTERVAL_JOIN = f"""
WITH {_SQL_IV}
SELECT l.l_id, r.r_id, least(l.e, r.e) - greatest(l.s, r.s) AS ov_us
FROM l, r WHERE l.s <= r.e AND r.s <= l.e"""

_SQL_IVK = """
l AS (SELECT user_id, event_id AS l_id, epoch_us(ts) AS s,
            epoch_us(ts) + (event_id % 3600 + 300
              + CASE WHEN event_id % 97 = 0 THEN 100000 ELSE 0 END)
              * 1000000 AS e
      FROM events WHERE event_id % 2 = 0),
r AS (SELECT user_id, event_id AS r_id, epoch_us(ts) AS s,
            epoch_us(ts) + (event_id % 7200 + 600
              + CASE WHEN event_id % 89 = 1 THEN 200000 ELSE 0 END)
              * 1000000 AS e
      FROM events WHERE event_id % 2 = 1)"""

SQL_INTERVAL_JOIN_USER = f"""
WITH {_SQL_IVK}
SELECT l.user_id, l.l_id, r.r_id,
       least(l.e, r.e) - greatest(l.s, r.s) AS ov_us
FROM l JOIN r ON l.user_id = r.user_id
WHERE l.s <= r.e AND r.s <= l.e"""


def q_interval_flatten(sf_dir: str):
    """Per-user interval union (gaps-and-islands): every event opens a
    window [ts, ts + f(event_id)]; windows overlapping or within a
    30-min gap merge into maximal islands — one grouped exchange,
    cython grouped cummax + reduceat per partition
    (ops/interval.interval_flatten)."""
    from .ops.interval import interval_flatten
    from .stages import tpch

    ev = tpch.read_events(sf_dir).select_columns(
        ["event_id", "user_id", "ts_us"])

    def mk(t: pa.Table) -> pa.Table:
        eid = t["event_id"].to_numpy()
        s = t["ts_us"].to_numpy(zero_copy_only=False)
        return pa.table({
            "user_id": t["user_id"],
            "s": pa.array(s),
            "e": pa.array(s + (eid % 36000 + 600) * 1_000_000),
        })

    iv = ev.map_batches(mk, batch_format="pyarrow")
    return interval_flatten(
        iv, key="user_id", start="s", end="e", gap=1_800_000_000,
        num_parts=_events_parts(sf_dir))


SQL_INTERVAL_FLATTEN = """
WITH iv AS (SELECT user_id, epoch_us(ts) AS s,
                   epoch_us(ts) + (event_id % 36000 + 600) * 1000000 AS e
            FROM events),
m AS (SELECT user_id, s, e,
        CASE WHEN s - COALESCE(MAX(e) OVER (PARTITION BY user_id
               ORDER BY s, e ROWS BETWEEN UNBOUNDED PRECEDING
               AND 1 PRECEDING), s - 1800000001) > 1800000000
             THEN 1 ELSE 0 END AS brk
      FROM iv),
g AS (SELECT *, SUM(brk) OVER (PARTITION BY user_id ORDER BY s, e
          ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS island
      FROM m)
SELECT user_id, MIN(s) AS ivl_start, MAX(e) AS ivl_end,
       COUNT(*) AS n_merged
FROM g GROUP BY user_id, island"""


# ---------------------------------------------------------------------------
# exact substring-overlap dedup (ops/substr.py): pairs sharing an
# exact run of >= 8 consecutive tokens, with the longest shared run


def q_substr_overlap(sf_dir: str):
    """U4 extension: exact substring-overlap pairs over documents —
    the distributed suffix-array-style dedup (window=8 tokens,
    anchor_every=1 so the result is fully exact and oracle-matched;
    winnowing is the documented sub-linear scale knob)."""
    import ray.data

    from .ops.substr import substring_overlap_pairs

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return substring_overlap_pairs(ds, window=8)


# gaps-and-islands on the shared-window diagonals: a run of
# consecutive positions at one (pair, pa-pb) diagonal is one maximal
# shared substring; longest run + W-1 = longest common substring in
# tokens. Tokenization matches the engine's str.split (ASCII corpus).
SQL_SUBSTR_OVERLAP = """
WITH w AS (SELECT doc_id, regexp_split_to_array(trim(text), '\\s+') AS ws
           FROM documents WHERE length(trim(text)) > 0),
p AS (SELECT doc_id, ws, unnest(generate_series(1, len(ws) - 7)) AS pos
      FROM w WHERE len(ws) >= 8),
g AS (SELECT doc_id, pos, array_to_string(ws[pos:pos+7], ' ') AS gram
      FROM p),
m AS (SELECT a.doc_id a, b.doc_id b, a.pos pa, b.pos pb
      FROM g a JOIN g b ON a.gram = b.gram AND a.doc_id < b.doc_id),
r AS (SELECT a, b, pa, pa - pb AS diag,
             pa - row_number() OVER (PARTITION BY a, b, pa - pb
                                     ORDER BY pa) AS isl
      FROM m),
runs AS (SELECT a, b, count(*) AS rl FROM r GROUP BY a, b, diag, isl)
SELECT a AS doc_a, b AS doc_b, sum(rl)::BIGINT AS n_windows,
       (max(rl) + 7)::BIGINT AS max_run_tokens
FROM runs GROUP BY 1, 2"""
