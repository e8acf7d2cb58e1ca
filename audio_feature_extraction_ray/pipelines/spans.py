"""Repeated-span detection and eval-set decontamination over `documents`.

Two corpus-level n-gram operators a training-data pipeline needs beyond
whole-document dedup (reference analog: the windowed-frame idea applied at
sub-document granularity — a "frame" here is a k-token shingle):

- `dup_spans`: for every document, how many of its k-token spans also occur
  in at least one OTHER document (Lee et al.'s exact substring dedup measured
  at shingle granularity). Output: (doc_id, n_grams, n_dup_grams, dup_frac).
- `decontaminate`: flag training documents sharing any k-token span with a
  held-out eval subset (benchmark-contamination scan). Output per TRAIN doc:
  (doc_id, n_eval_hits).

Shape at scale (both ops): per-batch vectorized gram construction from the
Arrow token buffers (k shifted `take`s + one element-wise join — no Python
per row), a per-batch (gram, doc_id) combiner via Arrow's C++ hash
aggregation, ONE exchange hash-partitioned on the gram string, per-partition
dictionary-encode + bincount, then a second small exchange on doc_id to fold
per-doc partials. Gram strings cross the wire once per distinct
(gram, doc, batch) — the combiner bounds exchange volume by distinct grams,
not positions. Nothing materializes on the driver; both exchanges are
bounded-partition `stages.exchange.exchange` calls on a `__pid` tag, the idiom
every other wide op in this repo uses. Exactness: grouping is by the gram STRING (dictionary
codes), never by a lossy hash — the 64-bit hash only routes.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import string_hash_strong
from ..stages.exchange import exchange, read_table

SPAN_K = 8  # tokens per span (the exact-substring-dedup shingle width)
GRAM_PARTS = 32  # gram-keyed exchange partitions
DOC_PARTS = 16  # doc-keyed fold partitions
EVAL_MOD, EVAL_REM = 29, 3  # doc_id % 29 == 3 -> held-out eval subset


def _read_docs(sf_dir: str, columns=None) -> ray.data.Dataset:
    return read_table([f"{sf_dir}/documents.parquet"], columns)


def _gram_pairs(tbl: pa.Table, k: int) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """(grams, doc_ids, n_grams_per_row): every k-token span of every row,
    built vectorized — k shifted takes of the flat token array joined
    element-wise with ' '. Rows shorter than k tokens contribute 0 grams."""
    text = tbl.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern(text, " ")
    ntok = pc.list_value_length(toks).cast(pa.int64()).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    offs = np.concatenate([[0], np.cumsum(ntok)])
    ngrams = np.maximum(ntok - k + 1, 0)
    total = int(ngrams.sum())
    doc_ids = tbl.column("doc_id").to_numpy(zero_copy_only=False)
    if total == 0:
        return pa.array([], pa.string()), np.empty(0, np.int64), ngrams
    row_rep = np.repeat(np.arange(ngrams.size), ngrams)
    pos_in_row = np.arange(total) - np.repeat(np.cumsum(ngrams) - ngrams, ngrams)
    starts = offs[:-1][row_rep] + pos_in_row
    parts = [flat.take(pa.array(starts + j)) for j in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    return grams, doc_ids[row_rep].astype(np.int64), ngrams


def _pair_partial(tbl: pa.Table, k: int) -> pa.Table:
    """Per-batch combiner: distinct (gram, doc_id) with position counts,
    routed by gram hash. Arrow C++ hash aggregation — no Python rows."""
    grams, dids, _ = _gram_pairs(tbl, k)
    pairs = pa.table(
        {
            "gram": grams,
            "doc_id": pa.array(dids, pa.int64()),
            "cnt": pa.array(np.ones(len(grams), np.int64)),
        }
    )
    agg = pairs.group_by(["gram", "doc_id"]).aggregate([("cnt", "sum")])
    gram_col = agg.column("gram").combine_chunks()
    pid = (string_hash_strong(gram_col) % np.uint64(GRAM_PARTS)).astype(np.int32)
    return pa.table(
        {
            "gram": gram_col,
            "doc_id": agg.column("doc_id"),
            "cnt": agg.column("cnt_sum"),
            "__pid": pa.array(pid),
        }
    )


def _fold_by_doc(partials: ray.data.Dataset, cols: dict[str, str]) -> ray.data.Dataset:
    """Second exchange: sum per-partition partials per doc_id. `cols` maps
    column -> 'sum' (only sums needed). Bounded: <= GRAM_PARTS rows per doc in."""

    def route(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        pid = (did.astype(np.uint64) % np.uint64(DOC_PARTS)).astype(np.int32)
        return tbl.append_column("__pid2", pa.array(pid))

    def fold(tbl: pa.Table) -> pa.Table:
        agg = tbl.group_by(["doc_id"]).aggregate([(c, "sum") for c in cols])
        return agg.rename_columns(["doc_id"] + list(cols))

    return exchange(
        partials.map_batches(route, batch_format="pyarrow"), "__pid2", fold, DOC_PARTS
    )


# ---------------------------------------------------------------------------
# dup_spans


def dup_spans(sf_dir: str, k: int = SPAN_K) -> ray.data.Dataset:
    """Per document: total k-token spans, spans whose gram occurs in >= 2
    distinct documents, and the duplicated fraction. (gram, doc_id) pairs are
    globally distinct after the batch combiner (a doc's rows never split
    across batches), so rows-per-gram in a partition == distinct docs."""

    def finish(tbl: pa.Table) -> pa.Table:
        de = pc.dictionary_encode(tbl.column("gram").combine_chunks())
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ndocs = np.bincount(codes)
        sel = (ndocs >= 2)[codes]
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)[sel]
        cnt = tbl.column("cnt").to_numpy(zero_copy_only=False)[sel]
        u, inv = np.unique(did, return_inverse=True)
        s = np.zeros(u.size, np.int64)
        np.add.at(s, inv, cnt)
        return pa.table({"doc_id": pa.array(u, pa.int64()), "dup_partial": pa.array(s)})

    partials = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: _pair_partial(t, k), batch_format="pyarrow"
    )
    dup_partials = exchange(partials, "__pid", finish, GRAM_PARTS)

    def base(tbl: pa.Table) -> pa.Table:
        _, _, ngrams = _gram_pairs(tbl, k)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id").cast(pa.int64()),
                "base_grams": pa.array(ngrams.astype(np.int64)),
            }
        )

    base_rows = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        base, batch_format="pyarrow"
    )

    def widen_dup(tbl: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(tbl.num_rows, np.int64))
        return pa.table(
            {"doc_id": tbl.column("doc_id"), "base_grams": z, "dup_partial": tbl.column("dup_partial")}
        )

    def widen_base(tbl: pa.Table) -> pa.Table:
        z = pa.array(np.zeros(tbl.num_rows, np.int64))
        return pa.table(
            {"doc_id": tbl.column("doc_id"), "base_grams": tbl.column("base_grams"), "dup_partial": z}
        )

    unioned = dup_partials.map_batches(widen_dup, batch_format="pyarrow").union(
        base_rows.map_batches(widen_base, batch_format="pyarrow")
    )
    folded = _fold_by_doc(unioned, {"base_grams": "sum", "dup_partial": "sum"})

    def final(tbl: pa.Table) -> pa.Table:
        ng = tbl.column("base_grams").to_numpy(zero_copy_only=False)
        nd = tbl.column("dup_partial").to_numpy(zero_copy_only=False)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = np.where(ng > 0, nd / np.maximum(ng, 1), 0.0)
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "n_grams": pa.array(ng, pa.int64()),
                "n_dup_grams": pa.array(nd, pa.int64()),
                "dup_frac": pa.array(frac, pa.float64()),
            }
        )

    return folded.map_batches(final, batch_format="pyarrow")


DUP_SPANS_SQL = f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
g AS (
  SELECT doc_id, array_to_string(toks[i:i+{SPAN_K - 1}], ' ') AS gram
  FROM t, UNNEST(range(1, len(toks) - {SPAN_K} + 2)) AS u(i)
),
d AS (SELECT gram FROM g GROUP BY gram HAVING count(DISTINCT doc_id) >= 2),
c AS (SELECT g.doc_id, count(*) AS n_dup FROM g JOIN d USING (gram) GROUP BY g.doc_id)
SELECT t.doc_id,
       greatest(len(toks) - {SPAN_K} + 1, 0) AS n_grams,
       COALESCE(c.n_dup, 0) AS n_dup_grams,
       CASE WHEN len(toks) >= {SPAN_K}
            THEN COALESCE(c.n_dup, 0)::DOUBLE / (len(toks) - {SPAN_K} + 1)
            ELSE 0.0 END AS dup_frac
FROM t LEFT JOIN c USING (doc_id)
"""


# ---------------------------------------------------------------------------
# decontaminate


def decontaminate(sf_dir: str, k: int = SPAN_K) -> ray.data.Dataset:
    """Benchmark-contamination scan: for every TRAIN doc (doc_id % EVAL_MOD
    != EVAL_REM), count its k-token spans whose gram also occurs in any EVAL
    doc. Fully distributed — the eval side rides the SAME gram exchange
    (no driver materialization, no broadcast), so an arbitrarily large eval
    suite still works; per partition membership is one dictionary encode +
    bincount over eval rows."""

    def finish(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        is_eval = did % EVAL_MOD == EVAL_REM
        de = pc.dictionary_encode(tbl.column("gram").combine_chunks())
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        nvoc = len(de.dictionary)
        eval_gram = np.bincount(codes[is_eval], minlength=nvoc) > 0
        sel = (~is_eval) & eval_gram[codes]
        tdid = did[sel]
        cnt = tbl.column("cnt").to_numpy(zero_copy_only=False)[sel]
        u, inv = np.unique(tdid, return_inverse=True)
        s = np.zeros(u.size, np.int64)
        np.add.at(s, inv, cnt)
        return pa.table({"doc_id": pa.array(u, pa.int64()), "hits_partial": pa.array(s)})

    partials = _read_docs(sf_dir, ["doc_id", "text"]).map_batches(
        lambda t: _pair_partial(t, k), batch_format="pyarrow"
    )
    hit_partials = exchange(partials, "__pid", finish, GRAM_PARTS)

    def base(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        train = did % EVAL_MOD != EVAL_REM
        return pa.table(
            {
                "doc_id": pa.array(did[train], pa.int64()),
                "hits_partial": pa.array(np.zeros(int(train.sum()), np.int64)),
            }
        )

    base_rows = _read_docs(sf_dir, ["doc_id"]).map_batches(base, batch_format="pyarrow")
    folded = _fold_by_doc(hit_partials.union(base_rows), {"hits_partial": "sum"})

    def final(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        train = did % EVAL_MOD != EVAL_REM  # drop eval-side partial rows
        return pa.table(
            {
                "doc_id": pa.array(did[train], pa.int64()),
                "n_eval_hits": pa.array(
                    tbl.column("hits_partial").to_numpy(zero_copy_only=False)[train], pa.int64()
                ),
            }
        )

    return folded.map_batches(final, batch_format="pyarrow")


DECONTAMINATE_SQL = f"""
WITH t AS (SELECT doc_id, string_split(text, ' ') AS toks FROM documents),
g AS (
  SELECT doc_id, array_to_string(toks[i:i+{SPAN_K - 1}], ' ') AS gram
  FROM t, UNNEST(range(1, len(toks) - {SPAN_K} + 2)) AS u(i)
),
e AS (SELECT DISTINCT gram FROM g WHERE doc_id % {EVAL_MOD} = {EVAL_REM}),
h AS (
  SELECT doc_id, count(*) AS n_hits
  FROM g JOIN e USING (gram)
  WHERE doc_id % {EVAL_MOD} <> {EVAL_REM}
  GROUP BY doc_id
)
SELECT d.doc_id, COALESCE(h.n_hits, 0) AS n_eval_hits
FROM (SELECT doc_id FROM documents WHERE doc_id % {EVAL_MOD} <> {EVAL_REM}) d
LEFT JOIN h USING (doc_id)
"""


# ---------------------------------------------------------------------------
# scrub_spans: the C4-line-dedup analog at shingle granularity — REWRITE each
# document with every token that is covered by a corpus-duplicate k-gram
# removed, and reassemble the text. Same two bounded exchanges as dup_spans
# (distinct (gram, doc) pairs on the gram key; then doc-keyed join-back of
# the duplicated grams to the text), with all position work done LOCALLY in
# the doc partition: the doc's grams are rebuilt vectorized, matched against
# its duplicated-gram set with one Arrow is_in over composed keys, and the
# covered-token mask comes from a +1/-1 diff + cumsum over the flat token
# array. Reassembly is ListArray.from_arrays + binary_join — no Python rows.


def _gram_positions(tbl: pa.Table, k: int):
    """Like _gram_pairs but also returns span positions and the flat token
    layout needed for scrubbing: (grams, row_rep, pos_in_row, flat_tokens,
    ntok, offs)."""
    text = tbl.column("text")
    if isinstance(text, pa.ChunkedArray):
        text = text.combine_chunks()
    toks = pc.split_pattern(text, " ")
    ntok = pc.list_value_length(toks).cast(pa.int64()).to_numpy(zero_copy_only=False)
    flat = pc.list_flatten(toks)
    if isinstance(flat, pa.ChunkedArray):
        flat = flat.combine_chunks()
    offs = np.concatenate([[0], np.cumsum(ntok)])
    ngrams = np.maximum(ntok - k + 1, 0)
    total = int(ngrams.sum())
    if total == 0:
        return (
            pa.array([], pa.string()),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
            flat,
            ntok,
            offs,
        )
    row_rep = np.repeat(np.arange(ngrams.size), ngrams)
    pos_in_row = np.arange(total) - np.repeat(np.cumsum(ngrams) - ngrams, ngrams)
    starts = offs[:-1][row_rep] + pos_in_row
    parts = [flat.take(pa.array(starts + j)) for j in range(k)]
    grams = pc.binary_join_element_wise(*parts, " ")
    return grams, row_rep, pos_in_row, flat, ntok, offs


_SCRUB_SEP = "\x1f"


def _compose_keys(doc_ids: np.ndarray, grams: pa.Array) -> pa.Array:
    ids = pa.array(doc_ids.astype("U"), pa.string())
    return pc.binary_join_element_wise(ids, grams, _SCRUB_SEP)


def scrub_spans(sf_dir: str, k: int = SPAN_K) -> ray.data.Dataset:
    docs = _read_docs(sf_dir, ["doc_id", "text"])
    partials = docs.map_batches(lambda t: _pair_partial(t, k), batch_format="pyarrow")

    def dup_pairs(tbl: pa.Table) -> pa.Table:
        """Per gram partition: keep (doc_id, gram) rows whose gram occurs in
        >= 2 distinct docs; route them to the doc partition."""
        de = pc.dictionary_encode(tbl.column("gram").combine_chunks())
        codes = de.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        ndocs = np.bincount(codes, minlength=len(de.dictionary))
        keep = ndocs[codes] >= 2  # pairs are (gram, doc)-distinct post-combiner
        out = tbl.filter(pa.array(keep))
        did = out.column("doc_id").to_numpy(zero_copy_only=False)
        pid = (did.astype(np.uint64) % np.uint64(DOC_PARTS)).astype(np.int32)
        n = out.num_rows
        return pa.table(
            {
                "doc_id": out.column("doc_id"),
                "text": pa.array([None] * n, pa.string()),
                "gram": out.column("gram"),
                "__side": pa.array(np.ones(n, np.int8)),
                "__pid2": pa.array(pid),
            }
        )

    dup_side = exchange(partials, "__pid", dup_pairs, GRAM_PARTS)

    def tag_docs(tbl: pa.Table) -> pa.Table:
        did = tbl.column("doc_id").to_numpy(zero_copy_only=False)
        pid = (did.astype(np.uint64) % np.uint64(DOC_PARTS)).astype(np.int32)
        n = tbl.num_rows
        return pa.table(
            {
                "doc_id": tbl.column("doc_id"),
                "text": tbl.column("text"),
                "gram": pa.array([None] * n, pa.string()),
                "__side": pa.array(np.zeros(n, np.int8)),
                "__pid2": pa.array(pid),
            }
        )

    out_schema = pa.schema(
        [("doc_id", pa.int64()), ("text_scrubbed", pa.string()), ("n_removed", pa.int64())]
    )

    def scrub(tbl: pa.Table) -> pa.Table:
        side = tbl.column("__side").to_numpy(zero_copy_only=False)
        fact = tbl.filter(pa.array(side == 0)).select(["doc_id", "text"])
        dup = tbl.filter(pa.array(side == 1)).select(["doc_id", "gram"])
        if fact.num_rows == 0:
            return out_schema.empty_table()
        grams, row_rep, pos_in_row, flat, ntok, offs = _gram_positions(fact, k)
        covered = np.zeros(int(offs[-1]) + 1, dtype=np.int64)
        if len(grams) and dup.num_rows:
            did = fact.column("doc_id").to_numpy(zero_copy_only=False)
            gkeys = _compose_keys(did[row_rep], grams)
            dkeys = _compose_keys(
                dup.column("doc_id").to_numpy(zero_copy_only=False),
                dup.column("gram").combine_chunks(),
            )
            hit = pc.is_in(gkeys, value_set=dkeys).to_numpy(zero_copy_only=False)
            starts = offs[:-1][row_rep[hit]] + pos_in_row[hit]
            np.add.at(covered, starts, 1)
            np.add.at(covered, starts + k, -1)  # span fits its row by construction
        cov = np.cumsum(covered[:-1]) > 0
        removed = _seg_sums(cov, offs)
        kept_flat = flat.filter(pa.array(~cov))
        new_offs = np.concatenate([[0], np.cumsum(ntok - removed)]).astype(np.int64)
        lists = pa.ListArray.from_arrays(pa.array(new_offs, pa.int64()).cast(pa.int32()), kept_flat)
        text_scrubbed = pc.binary_join(lists, pa.scalar(" ", pa.string()))
        return pa.table(
            {
                "doc_id": fact.column("doc_id"),
                "text_scrubbed": text_scrubbed,
                "n_removed": pa.array(removed, pa.int64()),
            }
        )

    merged = docs.map_batches(tag_docs, batch_format="pyarrow").union(dup_side)
    return exchange(merged, "__pid2", scrub, DOC_PARTS)


def _seg_sums(mask: np.ndarray, offs: np.ndarray) -> np.ndarray:
    c = np.concatenate([[0], np.cumsum(mask, dtype=np.int64)])
    return c[offs[1:]] - c[offs[:-1]]


SCRUB_SPANS_SQL = f"""
WITH t AS (
  SELECT doc_id, string_split(text, ' ') AS toks FROM documents
), g AS (
  SELECT doc_id, i AS s,
         array_to_string(toks[i:i+{SPAN_K - 1}], ' ') AS gram
  FROM t, UNNEST(range(1, len(toks) - {SPAN_K} + 2)) AS r(i)
), dup AS (
  SELECT gram FROM (
    SELECT gram, count(DISTINCT doc_id) AS c FROM g GROUP BY gram
  ) WHERE c >= 2
), hits AS (
  SELECT DISTINCT g.doc_id, g.s FROM g JOIN dup USING (gram)
), tokens AS (
  SELECT doc_id, i, toks[i] AS tok FROM t, UNNEST(range(1, len(toks) + 1)) AS r(i)
), marked AS (
  SELECT tok.doc_id, tok.i, tok.tok,
         EXISTS (SELECT 1 FROM hits h
                 WHERE h.doc_id = tok.doc_id
                   AND tok.i BETWEEN h.s AND h.s + {SPAN_K - 1}) AS covered
  FROM tokens tok
)
SELECT doc_id,
       coalesce(string_agg(tok, ' ' ORDER BY i) FILTER (WHERE NOT covered), '')
         AS text_scrubbed,
       CAST(count(*) FILTER (WHERE covered) AS BIGINT) AS n_removed
FROM marked GROUP BY doc_id
"""


# ---------------------------------------------------------------------------
# cross-source contamination matrix: for every pair of sources, how many
# DISTINCT k-token grams appear in both. The corpus-analysis twin of
# decontaminate: same gram-keyed exchange (a gram's copies all land in one
# partition, so per-gram source sets are partition-local and globally
# exact); pair generation reuses the sorted-segment kernel from the dedup
# stage; the driver folds only <= GRAM_PARTS x n_sources^2 counter rows.


def source_overlap(sf_dir: str, k: int = SPAN_K):
    from ..stages.dedup import _segment_pairs

    def partial(tbl: pa.Table) -> pa.Table:
        src = tbl.column("source")
        if isinstance(src, pa.ChunkedArray):
            src = src.combine_chunks()
        de = pc.dictionary_encode(src)
        # ride _gram_pairs' doc_id slot with the batch-local source code
        tmp = pa.table(
            {
                "doc_id": de.indices.cast(pa.int64()),
                "text": tbl.column("text"),
            }
        )
        grams, src_codes, _ = _gram_pairs(tmp, k)
        pairs = pa.table(
            {"gram": grams, "src_code": pa.array(src_codes, pa.int64())}
        )
        agg = pairs.group_by(["gram", "src_code"]).aggregate([])  # distinct
        gram_col = agg.column("gram").combine_chunks()
        pid = (string_hash_strong(gram_col) % np.uint64(GRAM_PARTS)).astype(np.int32)
        return pa.table(
            {
                "gram": gram_col,
                "source": de.dictionary.take(agg.column("src_code")),
                "__pid": pa.array(pid),
            }
        )

    def pair_kernel(tbl: pa.Table) -> pa.Table:
        grams = np.asarray(tbl.column("gram").to_numpy(zero_copy_only=False), dtype=object)
        srcs = np.asarray(tbl.column("source").to_numpy(zero_copy_only=False), dtype=object)
        gcodes = np.unique(grams, return_inverse=True)[1]
        # global distinct (gram, source): batches may re-emit the same pair
        order = np.lexsort((srcs, gcodes))
        gs, ss = gcodes[order], srcs[order]
        first = np.ones(order.size, dtype=bool)
        first[1:] = (gs[1:] != gs[:-1]) | (ss[1:] != ss[:-1])
        gs, ss = gs[first], ss[first]
        # sources sorted within each gram run -> a_idx < b_idx means
        # source_a < source_b, matching the SQL join condition
        a_idx, b_idx = _segment_pairs(gs, 1 << 20, "source_overlap")
        if a_idx.size == 0:
            return pa.schema(
                [("source_a", pa.string()), ("source_b", pa.string()), ("n_partial", pa.int64())]
            ).empty_table()
        key = np.char.add(np.char.add(ss[a_idx].astype(str), "\x1f"), ss[b_idx].astype(str))
        uk, counts = np.unique(key, return_counts=True)
        ab = np.array([u.split("\x1f", 1) for u in uk], dtype=object)
        return pa.table(
            {
                "source_a": pa.array(ab[:, 0].tolist(), pa.string()),
                "source_b": pa.array(ab[:, 1].tolist(), pa.string()),
                "n_partial": pa.array(counts.astype(np.int64), pa.int64()),
            }
        )

    partials = _read_docs(sf_dir, ["source", "text"]).map_batches(partial, batch_format="pyarrow")
    parts = exchange(partials, "__pid", pair_kernel, GRAM_PARTS)
    import pandas as pd

    df = parts.to_pandas()  # <= GRAM_PARTS x n_sources^2 rows — bounded
    out = (
        df.groupby(["source_a", "source_b"], as_index=False)["n_partial"]
        .sum()
        .rename(columns={"n_partial": "shared_grams"})
    )
    out["shared_grams"] = out["shared_grams"].astype("int64")
    return out


SOURCE_OVERLAP_SQL = f"""
WITH t AS (SELECT source, string_split(text, ' ') AS toks FROM documents),
g AS (
  SELECT DISTINCT source, array_to_string(toks[i:i+{SPAN_K - 1}], ' ') AS gram
  FROM t, UNNEST(range(1, len(toks) - {SPAN_K} + 2)) AS u(i)
)
SELECT a.source AS source_a, b.source AS source_b, COUNT(*)::BIGINT AS shared_grams
FROM g a JOIN g b ON a.gram = b.gram AND a.source < b.source
GROUP BY source_a, source_b
"""
