"""Grouped window operators: top-k per group and exact grouped quantiles.

Reference analog: the spec's per-window statistics family (SURVEY §2.4 F5 /
§2.6 A3 — per-window scalar summaries over grouped frames); recast here as
general keyed window operators over Ray Data.

Scale shape (both operators):
- map-side COMBINER inside map_batches: the same vectorized segment kernel
  runs per batch first, so at most k rows per key per batch (top-k) / one
  summary row per key per batch (quantiles would lose exactness, so
  quantiles ship (key, value) pairs but prune every other column) enter the
  exchange;
- ONE hash-partitioned exchange on the group key (`__pid` = hash(key) % P,
  the join/dedup exchange shape) — never one Ray group per key;
- per-partition finish: a single vectorized lexsort + segment-offset kernel
  handles EVERY key in the partition at once (np.lexsort / reduceat-style
  ranks), no per-group Python dispatch.

Keys may be int64 or string (strings hash through
functions.hashing.hash64_str_array, the same routing used by the dedup
family, so skewed string keys spread the same way everywhere).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data

from ..functions.hashing import hash64_str_array
from .exchange import exchange, pid_of

def _key_u64(col: pa.ChunkedArray) -> np.ndarray:
    """The 64-bit hash input of an int or string key column."""
    if pa.types.is_integer(col.type):
        return col.to_numpy(zero_copy_only=False).astype(np.int64)
    return hash64_str_array(col.to_numpy(zero_copy_only=False))


def _seg_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Start index of each key's run in a key-sorted array, broadcast to
    every row (vectorized rank = arange - start + 1)."""
    n = sorted_keys.size
    head = np.ones(n, dtype=bool)
    head[1:] = sorted_keys[1:] != sorted_keys[:-1]
    start = np.where(head, np.arange(n), 0)
    np.maximum.accumulate(start, out=start)
    return start


def _topk_kernel(
    tbl: pa.Table,
    key: str,
    order_col: str,
    tiebreak: str,
    k: int,
    descending: bool,
    with_rank: bool,
) -> pa.Table:
    """Keep the top-k rows of each key segment in ONE vectorized pass.

    Sort is (key, order_col [desc], tiebreak): deterministic and identical
    to the SQL `row_number() OVER (PARTITION BY key ORDER BY ...)` contract.
    String keys sort by their dictionary codes — any total order works for
    segmenting; the EMITTED rank depends only on within-key order.
    """
    if tbl.num_rows == 0:
        return tbl.append_column("rank", pa.array([], pa.int64())) if with_rank else tbl
    kcol = tbl.column(key)
    if pa.types.is_integer(kcol.type):
        keys = kcol.to_numpy(zero_copy_only=False)
    else:
        # factorize: np.unique codes preserve a total order over the batch
        keys = np.unique(kcol.to_numpy(zero_copy_only=False), return_inverse=True)[1]
    val = tbl.column(order_col).to_numpy(zero_copy_only=False).astype(np.float64)
    tie = tbl.column(tiebreak).to_numpy(zero_copy_only=False)
    idx = np.lexsort((tie, -val if descending else val, keys))
    ks = keys[idx]
    rank = np.arange(ks.size) - _seg_starts(ks) + 1
    keep = rank <= k
    out = tbl.take(pa.array(idx[keep]))
    if with_rank:
        out = out.append_column("rank", pa.array(rank[keep], pa.int64()))
    return out


def grouped_topk(
    ds: ray.data.Dataset,
    key: str,
    order_col: str,
    tiebreak: str,
    k: int,
    descending: bool = True,
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """row_number() OVER (PARTITION BY key ORDER BY order_col, tiebreak)
    <= k, with an in-batch combiner so the exchange carries at most k rows
    per key per input batch. Output: input columns + `rank`."""

    def combine(tbl: pa.Table) -> pa.Table:
        out = _topk_kernel(tbl, key, order_col, tiebreak, k, descending, with_rank=False)
        pid = pid_of(_key_u64(out.column(key)), num_partitions)
        return out.append_column("__pid", pa.array(pid))

    def finish(tbl: pa.Table) -> pa.Table:
        return _topk_kernel(
            tbl.drop_columns(["__pid"]), key, order_col, tiebreak, k, descending, with_rank=True
        )

    tagged = ds.map_batches(combine, batch_format="pyarrow")
    return exchange(tagged, "__pid", finish, num_partitions)


def grouped_quantiles(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    quantiles: dict[str, float],
    num_partitions: int = 32,
) -> ray.data.Dataset:
    """EXACT per-key interpolated quantiles (the `quantile_cont` contract:
    pos = q*(n-1), linear interpolation between the two bracketing order
    statistics). Ships only (key, value) through the exchange; one
    lexsort + segment-offset kernel per partition computes every requested
    quantile for every key in the partition with no per-group dispatch.

    Exactness requires co-locating all of a key's values — that is the
    operator's semantics (same as any exact-median engine); for sketch-sized
    summaries at unbounded key width use grouped_quantile_sketch instead."""
    qitems = sorted(quantiles.items())

    def tag(tbl: pa.Table) -> pa.Table:
        return pa.table(
            {
                "__pid": pa.array(pid_of(_key_u64(tbl.column(key)), num_partitions)),
                key: tbl.column(key),
                value_col: tbl.column(value_col),
            }
        )

    def finish(tbl: pa.Table) -> pa.Table:
        kraw = tbl.column(key).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(kraw, return_inverse=True)
        val = tbl.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        idx = np.lexsort((val, codes))
        cs, vs = codes[idx], val[idx]
        starts = np.flatnonzero(np.r_[True, cs[1:] != cs[:-1]])
        cnts = np.diff(np.r_[starts, cs.size])
        cols: dict[str, pa.Array] = {
            key: pa.array(uniq[cs[starts]]),
            "n": pa.array(cnts, pa.int64()),
        }
        last = starts + cnts - 1
        for name, q in qitems:
            # the position within each key's run, not within the block: a
            # block holds many keys, and starts + pos rounds frac off
            pos = (cnts - 1) * q
            lo = starts + np.floor(pos).astype(np.int64)
            hi = np.minimum(lo + 1, last)
            frac = pos - np.floor(pos)
            # DuckDB's quantile_cont interpolator is lo*(1-frac) + hi*frac
            # (verified empirically over randomized cases); use the same op
            # sequence so results are bit-identical to the SQL oracle
            cols[name] = pa.array(vs[lo] * (1.0 - frac) + vs[hi] * frac, pa.float64())
        return pa.table(cols)

    return exchange(ds.map_batches(tag, batch_format="pyarrow"), "__pid", finish, num_partitions)


def grouped_quantile_sketch(
    ds: ray.data.Dataset,
    key: str,
    value_col: str,
    quantiles: dict[str, float],
    lo: float,
    hi: float,
    bins: int = 4096,
) -> ray.data.Dataset:
    """Mergeable histogram quantile sketch — the unbounded-key-width scale
    path next to grouped_quantiles' exact co-located kernel. Per batch, each
    key contributes a `bins`-cell count vector over the fixed [lo, hi) range
    (np.add.at, no per-key Python); partials merge by summing counts, so the
    exchange carries O(keys_per_batch x bins) integers regardless of row
    count. Quantile error is bounded by one bin width ((hi-lo)/bins).

    The [lo, hi) range is a declared input (like any histogram sketch);
    values outside clamp to the edge bins."""
    qitems = sorted(quantiles.items())
    width = (hi - lo) / bins

    def partial(tbl: pa.Table) -> pa.Table:
        kraw = tbl.column(key).to_numpy(zero_copy_only=False)
        val = tbl.column(value_col).to_numpy(zero_copy_only=False).astype(np.float64)
        uniq, codes = np.unique(kraw, return_inverse=True)
        b = np.clip(((val - lo) / width).astype(np.int64), 0, bins - 1)
        counts = np.zeros((uniq.size, bins), dtype=np.int64)
        np.add.at(counts, (codes, b), 1)
        return pa.table(
            {
                key: pa.array(uniq),
                "__counts": pa.FixedSizeListArray.from_arrays(
                    pa.array(counts.ravel(), pa.int64()), bins
                ),
            }
        )

    def finish(tbl: pa.Table) -> pa.Table:
        kraw = tbl.column(key).to_numpy(zero_copy_only=False)
        uniq, codes = np.unique(kraw, return_inverse=True)
        flat = tbl.column("__counts").combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        ).reshape(-1, bins)
        merged = np.zeros((uniq.size, bins), dtype=np.int64)
        np.add.at(merged, codes, flat)
        n = merged.sum(axis=1)
        csum = np.cumsum(merged, axis=1)
        cols: dict[str, pa.Array] = {key: pa.array(uniq), "n": pa.array(n, pa.int64())}
        centers = lo + (np.arange(bins) + 0.5) * width
        for name, q in qitems:
            target = np.ceil(q * n).astype(np.int64).clip(min=1)
            idx = np.array([np.searchsorted(csum[i], target[i]) for i in range(uniq.size)])
            cols[name] = pa.array(centers[np.clip(idx, 0, bins - 1)], pa.float64())
        return pa.table(cols)

    # route whole keys to partitions so each key's sketch merges exactly once
    def tag(tbl: pa.Table) -> pa.Table:
        return tbl.append_column(
            "__pid", pa.array(pid_of(_key_u64(tbl.column(key)), 32))
        )

    tagged = ds.map_batches(partial, batch_format="pyarrow").map_batches(
        tag, batch_format="pyarrow"
    )
    return exchange(tagged, "__pid", finish, 32)
