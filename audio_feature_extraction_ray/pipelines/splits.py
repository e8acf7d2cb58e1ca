"""Driver-contract queries for the split/augment family (SURVEY §2.1 S6 /
§2.2 M6; reference analogs: DatasetSplitter tasks.md:688-709, DataAugmentation
tasks.md:662-684).

`docs_split_stats` uses an id-modulus bucket so the assignment is exactly
SQL-expressible (the url-hash split used by stages.split_augment is pinned by
pytest instead — crc32 is not available in DuckDB). `docs_augment` is the
seeded deterministic token-dropout (rows-only check: per-row RNG is not SQL).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..stages.exchange import exchange, read_table

TRAIN_PCT, VAL_PCT = 80, 90  # bucket boundaries on id % 100


def _docs(sf_dir: str, columns: list[str]) -> ray.data.Dataset:
    return read_table([f"{sf_dir}/documents.parquet"], columns)


def docs_split_stats(sf_dir: str) -> ray.data.Dataset:
    """train/val/test split by doc_id % 100 -> per-split counts + char sums.
    Pre-aggregated inside map_batches (combiner), then one gather folds the
    <= 3 rows per block."""

    def assign_and_partial(tbl: pa.Table) -> pa.Table:
        bucket = tbl.column("doc_id").to_numpy() % 100
        split = np.where(bucket < TRAIN_PCT, "train", np.where(bucket < VAL_PCT, "val", "test"))
        tbl = tbl.append_column("split", pa.array(split.tolist(), pa.string()))
        # partial aggregate: one row per split per batch. Select by NAME —
        # the key column's position in group_by().aggregate() output has
        # moved across pyarrow versions, and a positional rename would
        # silently mislabel counts as the split name.
        agg = tbl.group_by("split").aggregate([("doc_id", "count"), ("n_chars", "sum")])
        return pa.table(
            {
                "split": agg.column("split"),
                "n_docs": agg.column("doc_id_count"),
                "sum_chars": agg.column("n_chars_sum"),
            }
        )

    ds = _docs(sf_dir, ["doc_id", "n_chars"]).map_batches(
        assign_and_partial, batch_format="pyarrow"
    )

    def combine(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by("split").aggregate([("n_docs", "sum"), ("sum_chars", "sum")])
        return pa.table(
            {
                "split": agg.column("split"),
                "n_docs": agg.column("n_docs_sum"),
                "sum_chars": agg.column("sum_chars_sum"),
            }
        )

    return exchange(ds, "split", combine, 1)


DOCS_SPLIT_STATS_SQL = f"""
SELECT CASE WHEN doc_id % 100 < {TRAIN_PCT} THEN 'train'
            WHEN doc_id % 100 < {VAL_PCT} THEN 'val'
            ELSE 'test' END AS split,
       count(*) AS n_docs,
       CAST(sum(n_chars) AS BIGINT) AS sum_chars
FROM documents
GROUP BY 1
"""


# ---------------------------------------------------------------------------
# arithmetic-hash augmentation variants — hash-checkable end to end: the
# DuckDB oracle reproduces the augmented TEXT byte-for-byte (both sides use
# the same (key, 1-based token index) integer arithmetic).


def docs_augment_hashdrop(sf_dir: str) -> ray.data.Dataset:
    from ..stages.split_augment import hashdrop_batch

    def fn(tbl: pa.Table) -> pa.Table:
        return hashdrop_batch(tbl, text_col="text", id_col="doc_id", drop_pct=10).select(
            ["doc_id", "text_aug"]
        )

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


DOCS_AUGMENT_HASHDROP_SQL = """
SELECT doc_id,
       array_to_string(
         list_filter(string_split(text, ' '),
                     (x, i) -> (doc_id * 1000003 + i * 10007) % 100 >= 10),
         ' ') AS text_aug
FROM documents
"""


def docs_mask_spans(sf_dir: str) -> ray.data.Dataset:
    from ..stages.split_augment import mask_spans_batch

    def fn(tbl: pa.Table) -> pa.Table:
        return mask_spans_batch(tbl).select(["doc_id", "text_aug"])

    return _docs(sf_dir, ["doc_id", "text"]).map_batches(fn, batch_format="pyarrow")


DOCS_MASK_SPANS_SQL = """
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
), p AS (
  SELECT doc_id, toks,
         (doc_id * 1000003) % greatest(len(toks) - 4, 1) + 1 AS s
  FROM t
)
SELECT doc_id,
       array_to_string(
         list_transform(toks,
                        (x, i) -> CASE WHEN i >= s AND i < s + 5 THEN '<mask>' ELSE x END),
         ' ') AS text_aug
FROM p
"""


def docs_augment(sf_dir: str) -> ray.data.Dataset:
    """Seeded deterministic token dropout over documents (rows-only check);
    returns per-doc token counts before/after so determinism is observable."""
    from ..stages.split_augment import augment_texts

    ds = _docs(sf_dir, ["doc_id", "text"])
    ds = augment_texts(ds, text_col="text", key_col="doc_id", drop_prob=0.1)

    def counts(tbl: pa.Table) -> pa.Table:
        def ntok(col):
            s = pc.count_substring(col, " ")
            return pc.if_else(pc.equal(pc.utf8_length(col), 0), 0, pc.add(s, 1))

        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "tokens_before": pc.cast(ntok(tbl.column("text")), pa.int64()),
                "tokens_after": pc.cast(ntok(tbl.column("text_aug")), pa.int64()),
            }
        )

    return ds.map_batches(counts, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# deterministic data-mixture sampling: per-language keep rates via the same
# integer arithmetic hash as the augmentation family, so the sample is
# exactly reproducible AND SQL-expressible (no RNG state anywhere).

MIXTURE_RATES = {"en": 40, "de": 80, "es": 80, "fr": 80, "zh": 95}
MIXTURE_DEFAULT = 50
_MIX_A, _MIX_B = 1000003, 7919


def docs_mixture_sample(sf_dir: str) -> ray.data.Dataset:
    """Downsample the dominant language, upweight the tail — the training
    data mixing step. Keep doc iff (doc_id*A + B) % 100 < rate(lang)."""

    def fn(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id").to_numpy()
        lang = tbl.column("lang").to_numpy(zero_copy_only=False)
        rates = np.full(did.size, MIXTURE_DEFAULT, dtype=np.int64)
        for lg, r in MIXTURE_RATES.items():
            rates[lang == lg] = r
        keep = (did * _MIX_A + _MIX_B) % 100 < rates
        return tbl.filter(pa.array(keep))

    return _docs(sf_dir, ["doc_id", "lang", "source", "n_chars"]).map_batches(
        fn, batch_format="pyarrow"
    )


def _mixture_case_sql() -> str:
    whens = "\n".join(
        f"         WHEN lang = '{lg}' THEN {r}" for lg, r in sorted(MIXTURE_RATES.items())
    )
    return f"CASE\n{whens}\n         ELSE {MIXTURE_DEFAULT} END"


DOCS_MIXTURE_SAMPLE_SQL = f"""
SELECT doc_id, lang, source, n_chars
FROM documents
WHERE (doc_id * {_MIX_A} + {_MIX_B}) % 100 <
      {_mixture_case_sql()}
"""


# ---------------------------------------------------------------------------
# stratified sampling: a fixed-size per-language sample ordered by the
# arithmetic hash (reservoir-equivalent, but deterministic and
# SQL-expressible). Rides on stages/window.grouped_topk.

STRAT_SAMPLE_K = 20
_STRAT_A, _STRAT_B, _STRAT_M = 1000003, 4241, 100000


def docs_stratified_sample(sf_dir: str) -> ray.data.Dataset:
    from ..stages.window import grouped_topk

    def add_h(tbl: pa.Table) -> pa.Table:
        h = (tbl.column("doc_id").to_numpy() * _STRAT_A + _STRAT_B) % _STRAT_M
        return tbl.append_column("h", pa.array(h, pa.int64()))

    ds = _docs(sf_dir, ["doc_id", "lang", "n_chars"]).map_batches(add_h, batch_format="pyarrow")
    return grouped_topk(
        ds, key="lang", order_col="h", tiebreak="doc_id", k=STRAT_SAMPLE_K, descending=False
    )


DOCS_STRATIFIED_SAMPLE_SQL = f"""
SELECT doc_id, lang, n_chars, h, CAST(rank AS BIGINT) AS rank
FROM (
  SELECT doc_id, lang, n_chars,
         (doc_id * {_STRAT_A} + {_STRAT_B}) % {_STRAT_M} AS h,
         row_number() OVER (PARTITION BY lang
                            ORDER BY (doc_id * {_STRAT_A} + {_STRAT_B}) % {_STRAT_M}, doc_id)
           AS rank
  FROM documents
)
WHERE rank <= {STRAT_SAMPLE_K}
"""


# ---------------------------------------------------------------------------
# deterministic global shuffle: the training-data "shuffle the corpus once,
# write in shuffle order" step, seeded and reproducible. Shuffle key is a
# Knuth multiplicative hash of doc_id (SQL-expressible modular arithmetic:
# products stay < 2^62, no BIGINT overflow on either side), tie-broken by
# doc_id. Positions come from the exact distributed rank machinery
# (sampled range bounds -> order-aligned partitions -> local sort + prefix
# offsets — text_analysis.global_rank_by_key); nothing but <= P counters and
# a 10k-row key sample ever reaches the driver. Contract: doc_id < 2^31
# (the packed (key << 31) | doc_id order tie-break; wider ids need a wider
# pack, not a different algorithm).

SHUF_A, SHUF_B, SHUF_M = 2654435761, 12345, 1 << 31


def _shuffle_key(ids: np.ndarray) -> np.ndarray:
    ids = ids.astype(np.int64)
    h = ((ids % SHUF_M) * SHUF_A + SHUF_B) % SHUF_M
    return (h << np.int64(31)) | ids


def docs_global_shuffle(sf_dir: str) -> ray.data.Dataset:
    import pyarrow.parquet as pq

    from .text_analysis import global_rank_by_key, sample_key_bounds

    docs_path = f"{sf_dir}/documents.parquet"
    n = pq.read_metadata(docs_path).num_rows
    frac = min(1.0, 10_000 / max(1, n))
    sample = _docs(sf_dir, ["doc_id"]).random_sample(frac, seed=13).take_all()
    s_ids = np.array([r["doc_id"] for r in sample], dtype=np.int64)
    bounds = sample_key_bounds(_shuffle_key(s_ids))

    def tag(tbl: pa.Table) -> pa.Table:
        ids = tbl.column("doc_id").to_numpy()
        key = _shuffle_key(ids)
        pid = np.searchsorted(bounds, key, side="right").astype(np.int32)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id").cast(pa.int64()),
                "__key": pa.array(key),
                "__pid": pa.array(pid),
            }
        )

    return global_rank_by_key(
        _docs(sf_dir, ["doc_id"]), tag, bounds, ["doc_id"], "shuffle_pos"
    )


DOCS_GLOBAL_SHUFFLE_SQL = f"""
SELECT doc_id,
       row_number() OVER (
         ORDER BY ((doc_id % {SHUF_M}) * {SHUF_A} + {SHUF_B}) % {SHUF_M}, doc_id
       ) AS shuffle_pos
FROM documents
"""


# ---------------------------------------------------------------------------
# temperature-scaled language mixing: keep rates derived FROM the corpus
# (rate_l = round(1000 * sqrt(n_min / n_l)), i.e. alpha = 0.5 temperature
# sampling — sampled counts ~ n_l^alpha, flattening the language skew), then
# the same arithmetic-hash deterministic filter as docs_mixture_sample. Two
# passes: a map-side-combined count exchange (one bounded row per lang per
# block) feeds a driver fold that is bounded by the number of LANGUAGES
# (~200 in any real corpus — a legitimate broadcast side), and the keep pass
# streams with the tiny rate table broadcast via ray.put. sqrt is IEEE-754
# correctly rounded, so the engine's numpy rates and DuckDB's are
# bit-identical, not merely close.

_TEMP_A, _TEMP_B, _TEMP_M = 999983, 12289, 1000


def _lang_counts(sf_dir: str) -> dict[str, int]:
    ds = _docs(sf_dir, ["lang"])

    def partial(tbl: pa.Table) -> pa.Table:
        lang = tbl.column("lang")
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        de = pc.dictionary_encode(lang)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        n = np.bincount(codes, minlength=len(de.dictionary)).astype(np.int64)
        return pa.table({"lang": de.dictionary, "n_partial": pa.array(n, pa.int64())})

    from ..stages.fold import exchange_fold

    def fold(tbl: pa.Table) -> pa.Table:
        return (
            tbl.group_by(["lang"])
            .aggregate([("n_partial", "sum")])
            .rename_columns(["lang", "n_partial"])
        )

    folded = exchange_fold(ds.map_batches(partial, batch_format="pyarrow"), fold)
    counts: dict[str, int] = {}
    for row in folded.to_pylist() if folded is not None else []:
        counts[row["lang"]] = counts.get(row["lang"], 0) + int(row["n_partial"])
    return counts


def docs_temperature_mix(sf_dir: str) -> ray.data.Dataset:
    import ray

    counts = _lang_counts(sf_dir)
    n_min = min(counts.values())
    rates = {
        lg: int(np.floor(1000.0 * np.sqrt(np.float64(n_min) / np.float64(n)) + 0.5))
        for lg, n in counts.items()
    }
    rates_ref = ray.put(rates)

    def fn(tbl: pa.Table) -> pa.Table:
        r = ray.get(rates_ref)
        did = tbl.column("doc_id").to_numpy()
        lang = tbl.column("lang")
        if isinstance(lang, pa.ChunkedArray):
            lang = lang.combine_chunks()
        de = pc.dictionary_encode(lang)
        rate_by_code = np.array([r[str(v)] for v in de.dictionary], dtype=np.int64)
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        keep = (did * _TEMP_A + _TEMP_B) % _TEMP_M < rate_by_code[codes]
        out = tbl.filter(pa.array(keep))
        rate_col = rate_by_code[codes][keep]
        return out.append_column("keep_rate", pa.array(rate_col, pa.int64()))

    return _docs(sf_dir, ["doc_id", "lang", "source", "n_chars"]).map_batches(
        fn, batch_format="pyarrow"
    )


DOCS_TEMPERATURE_MIX_SQL = f"""
WITH c AS (SELECT lang, count(*) AS n FROM documents GROUP BY lang),
     m AS (SELECT min(n) AS nmin FROM c),
     r AS (SELECT lang,
                  CAST(floor(1000 * sqrt(CAST(nmin AS DOUBLE) / n) + 0.5) AS BIGINT)
                    AS keep_rate
           FROM c, m)
SELECT d.doc_id, d.lang, d.source, d.n_chars, r.keep_rate
FROM documents d JOIN r USING (lang)
WHERE (d.doc_id * {_TEMP_A} + {_TEMP_B}) % {_TEMP_M} < r.keep_rate
"""


# ---------------------------------------------------------------------------
# quality-weighted importance sampling: each document is kept with
# probability equal to its quality score (the fixed-point 1e6 score the
# keep-best dedup uses), decided by the same arithmetic hash as the other
# sampling ops — deterministic, reproducible, SQL-expressible, zero RNG
# state. High-quality docs survive, boilerplate is down-weighted smoothly.

# Knuth multiplicative hash mod 2^32 so the millionths-scale threshold sees
# a well-mixed residue even for small dense ids (a linear a*id+b never wraps
# 1e6 for id < ~1e3 and would keep everything). id contract: doc_id < 2^31
# (product stays under 2^63).
_WS_MUL = 2654435761


def docs_weighted_sample(sf_dir: str) -> ray.data.Dataset:
    from .text_analysis import quality_scores

    def fn(tbl: pa.Table) -> pa.Table:
        q = quality_scores(tbl.column("text"))
        q6 = np.floor(q * 1e6 + 0.5).astype(np.int64)  # exact: q is k/1e6
        did = tbl.column("doc_id").to_numpy()
        keep = (did * _WS_MUL) % 4294967296 % 1_000_000 < q6
        out = tbl.filter(pa.array(keep)).drop_columns(["text"])
        return out.append_column("quality", pa.array(q[keep], pa.float64()))

    return _docs(sf_dir, ["doc_id", "lang", "text"]).map_batches(fn, batch_format="pyarrow")


def _weighted_sample_sql() -> str:
    from .text_analysis import QUALITY_EXPR, QUALITY_T_CTE

    return f"""
WITH {QUALITY_T_CTE},
q AS (SELECT doc_id, lang, {QUALITY_EXPR} AS quality FROM t)
SELECT doc_id, lang, quality
FROM q
WHERE (doc_id * {_WS_MUL}) % 4294967296 % 1000000 < CAST(quality * 1e6 AS BIGINT)
"""
