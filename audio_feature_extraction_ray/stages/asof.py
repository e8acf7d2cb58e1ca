"""Generic co-partitioned sorted-merge as-of join (SURVEY §2.5 J2, large
right side).

When the right side is too big to broadcast (engine.broadcast_signals_max_rows),
both sides are hash-partitioned ON THE SAME KEY into the same partition ids,
unioned with a side tag, routed by `stages.exchange.exchange`, and merged per
reduce block (many keys at once) with ONE vectorized pass
("<=" tie semantics: an equal-timestamp right row IS visible to the left row).

The merge dictionary-encodes the key to int codes and finds every left
row's right match with `state.kernels.asof_index`, the as-of cursor the
events kernels and the pages LOCF share: one sort and one carried index for
every key segment at once, no Python loop per key.

Partitioning contract: the join key must be the partition key of both sides
(for the pages pipeline that means partitioning by host instead of url when
signals are host-keyed — a config choice; url-keyed partitioning keeps the
broadcast path).
"""

from __future__ import annotations

import functools
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import avalanche64, string_hash_strong
from ..state.kernels import asof_index
from .exchange import exchange


def _key_partition_ids(col, num_partitions: int) -> np.ndarray:
    """Vectorized routing hash for a key column of ANY type: strings hash
    from the Arrow buffers, integral/temporal keys avalanche their int64
    view. No per-row Python (round-2 verdict #1)."""
    if pa.types.is_string(col.type) or pa.types.is_large_string(col.type):
        h = string_hash_strong(col)
    else:
        v = col.cast(pa.int64()).to_numpy(zero_copy_only=False)
        h = avalanche64(np.asarray(v, dtype=np.int64).view(np.uint64))
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _tag_and_project(
    tbl: pa.Table,
    side: int,
    key: str,
    ts: str,
    all_cols: list[str],
    col_types: dict,
    num_partitions: int,
) -> pa.Table:
    n = tbl.num_rows
    cols: dict[str, pa.Array] = {}
    kcol = tbl.column(key)
    if isinstance(kcol, pa.ChunkedArray):
        kcol = kcol.combine_chunks()
    cols["__pid"] = pa.array(_key_partition_ids(kcol, num_partitions))
    cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
    # native key type preserved end-to-end (round-2 ADVICE); cast unifies
    # minor dtype drift between the two sides (e.g. int32 vs int64)
    cols["__key"] = kcol if kcol.type == col_types["__key"] else kcol.cast(col_types["__key"])
    cols["__ts"] = tbl.column(ts).cast(pa.int64())
    for c in all_cols:
        # absent columns are typed from the OTHER side's schema so the union
        # of the two tagged datasets has one consistent schema
        cols[c] = tbl.column(c) if c in tbl.column_names else pa.nulls(n, col_types[c])
    return pa.table(cols)


def asof_join_copartitioned(
    left: ray.data.Dataset,
    right: ray.data.Dataset | Callable[[pa.Table], pa.Table],
    key: str,
    left_ts: str,
    right_ts: str,
    left_cols: list[str],
    right_value_cols: list[str],
    num_partitions: int = 32,
    prefix: str = "asof_",
    col_types: dict | None = None,
    key_type: pa.DataType | None = None,
) -> ray.data.Dataset:
    """Returns key + left_ts + left_cols + prefixed right value columns
    (float64, NaN when no right row with right.ts <= left.ts exists for the
    key). The key keeps its NATIVE type (string or integral) in the output.
    Pass col_types (column -> pa.DataType for left_cols + right_value_cols)
    and key_type when known — the .schema() fallback partially EXECUTES both
    upstream pipelines just to sample their schemas.

    `right` may instead be a function of a left block that returns its
    right rows (e.g. a filter of the same table): both sides are then
    tagged in one map over one read, so a one-block left side stays one
    block into the exchange."""

    all_left = left_cols
    all_cols = all_left + right_value_cols
    if col_types is None or key_type is None:
        lschema = left.schema()  # ray.data.Schema
        if callable(right):
            rschema = right(lschema.base_schema.empty_table()).schema
        else:
            rschema = right.schema()
        ltypes = dict(zip(lschema.names, lschema.types))
        rtypes = dict(zip(rschema.names, rschema.types))
        if col_types is None:
            col_types = {c: ltypes.get(c, rtypes.get(c)) for c in all_cols}
        if key_type is None:
            key_type = ltypes[key]
    col_types = {**col_types, "__key": key_type}
    tag_l = functools.partial(
        _tag_and_project, side=0, key=key, ts=left_ts, all_cols=all_cols,
        col_types=col_types, num_partitions=num_partitions,
    )
    tag_r = functools.partial(
        _tag_and_project, side=1, key=key, ts=right_ts, all_cols=all_cols,
        col_types=col_types, num_partitions=num_partitions,
    )
    if callable(right):

        def tag_both(tbl: pa.Table) -> pa.Table:
            return pa.concat_tables([tag_l(tbl), tag_r(right(tbl))])

        unioned = left.map_batches(tag_both, batch_format="pyarrow")
    else:
        lt = left.map_batches(tag_l, batch_format="pyarrow")
        rt = right.map_batches(tag_r, batch_format="pyarrow")
        unioned = lt.union(rt)

    def merge(tbl: pa.Table) -> pa.Table:
        key_col = tbl.column("__key")
        if isinstance(key_col, pa.ChunkedArray):
            key_col = key_col.combine_chunks()
        kc = pc.dictionary_encode(key_col).indices.to_numpy(zero_copy_only=False)
        ts = tbl.column("__ts").to_numpy()
        is_r = tbl.column("__side").to_numpy(zero_copy_only=False) == 1
        # equal-ts right rows: the last in block order wins
        match = asof_index(kc, ts, is_r, np.arange(tbl.num_rows))
        lrows = np.flatnonzero(~is_r)
        mrows = match[lrows]
        mvalid = mrows >= 0
        left_tbl = tbl.take(pa.array(lrows))
        cols: dict[str, pa.Array] = {key: left_tbl.column("__key")}
        cols[left_ts] = left_tbl.column("__ts").cast(pa.timestamp("us"))
        for c in all_left:
            cols[c] = left_tbl.column(c)
        for c in right_value_cols:
            rv = np.asarray(
                tbl.column(c).to_numpy(zero_copy_only=False), dtype=np.float64
            )
            cols[prefix + c] = pa.array(np.where(mvalid, rv[mrows], np.nan), pa.float64())
        return pa.table(cols)

    return exchange(unioned, "__pid", merge, num_partitions)
