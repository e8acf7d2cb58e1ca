"""The keyed exchange, and the read layout in front of it.

`exchange(ds, key, fn, parts, order)` routes rows by an integer key in
[0, parts) into R reduce blocks, then calls `fn` once per non-empty block
after a stable sort by `order`. Every branch keeps each key group whole in
one block, the guarantee of Ray's own `groupby(key).map_groups`, but none
samples the data:

  * R is the block count `predicted_num_blocks(ds)` reads off the logical
    plan, capped at `parts`;
  * R == 1: `ds.repartition(1)`, Ray's own plan for a keyless map_groups;
  * R > 1: `ds.sort(key, boundaries=...)` at round(i * parts / R), so the
    sort skips its SortSample round trip and each reducer gets the same
    number of key values;
  * no prediction: Ray's sampled `ds.sort(key)`, as map_groups does.

A wrong prediction costs speed only. A block holds many keys, so `fn` is a
block kernel: one call per reduce block rather than one per key value.

The read in front of the exchange fixes R. `read_num_blocks(files)` picks
the read's block count without reading any data: from the cluster CPUs and
the parquet footers. Ray 2.49 sizes a read it is left to size as

    max(min(200, mem / target_min_block_size), mem / target_max_block_size, 2 x CPUs)

For a table that is large per CPU, that is the right count. For a small one
the 2 x CPUs floor wins over Ray's own minimum block size, and a 20k-row
events table (0.55 MiB) reads as eight 2,500-row blocks whose per-task
overhead is most of each query's wall. The rule has three branches:

  * at least as many files as cluster CPUs: one block per file (any format);
  * fewer files, parquet: ceil(footer bytes / target_min_block_size) blocks
    when that is below 2 x CPUs, i.e. Ray's heuristic with the CPU floor
    dropped only where the floor would decide the count;
  * otherwise (no Ray session, Ray's count already above the floor,
    unreadable or non-parquet input): None, and Ray splits as it always has.

"Footer bytes" is the sum of every row group's `total_byte_size`
(uncompressed), the in-memory size the footer promises without a data read.
The threshold is Ray's own `DataContext.target_min_block_size`, so lowering
that knob is also how a caller (or a test) asks for a finer split.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import ray
from ray.data import DataContext, Dataset
from ray.data._internal.logical.operators.n_ary_operator import Union
from ray.data._internal.logical.operators.read_operator import Read


def _footer_bytes(files: list[str]) -> int | None:
    """Uncompressed bytes of every row group, from the parquet footers
    alone. None when a file is missing or not parquet."""
    total = 0
    for path in files:
        try:
            md = pq.read_metadata(path)
        except (OSError, pa.ArrowInvalid):
            return None
        total += sum(md.row_group(i).total_byte_size for i in range(md.num_row_groups))
    return total


def read_num_blocks(files: list[str]) -> int | None:
    """Block count for reading `files`, or None to leave it to Ray (see the
    module docstring for the three branches)."""
    if not ray.is_initialized():
        return None
    cpus = int(ray.cluster_resources().get("CPU", 0))
    if cpus <= 0:
        return None
    if len(files) >= cpus:
        return len(files)
    nbytes = _footer_bytes(files)
    if nbytes is None:
        return None
    n = max(1, math.ceil(nbytes / DataContext.get_current().target_min_block_size))
    return n if n < 2 * cpus else None


def _predicted_outputs(op) -> int | None:
    if isinstance(op, Read):
        # n read tasks; a requested count p above n makes Ray cut each task's
        # output into ceil(p / n) blocks (SplitBlocks). With no request Ray
        # sizes the read at plan time, which the logical plan cannot tell.
        n, p = op._num_outputs, op._parallelism
        if p <= 0:
            return None
        return n * max(1, math.ceil(p / n)) if n else 0
    if isinstance(op, Union):
        counts = [_predicted_outputs(d) for d in op.input_dependencies]
        return None if None in counts else sum(counts)
    if op._num_outputs is None and len(op.input_dependencies) == 1:
        return _predicted_outputs(op.input_dependencies[0])
    return op.estimated_num_outputs()


def predicted_num_blocks(ds: Dataset) -> int | None:
    """Blocks `ds` is predicted to produce, from its logical plan alone:
    Ray's `estimated_num_outputs`, except that a read counts the SplitBlocks
    Ray adds to reach a requested block count. None when unknown."""
    return _predicted_outputs(ds._logical_plan.dag)


def _stable_order(tbl: pa.Table, order: tuple[str, ...]) -> np.ndarray:
    """Row order of `tbl` stably sorted by the `order` columns, first column
    most significant; timestamps compare as int64."""
    cols = []
    for c in reversed(order):
        col = tbl.column(c)
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        cols.append(col.to_numpy(zero_copy_only=False))
    return np.lexsort(cols)


def exchange(
    ds: Dataset,
    key: str,
    fn: Callable[[pa.Table], pa.Table],
    parts: int,
    order: tuple[str, ...] = (),
) -> Dataset:
    """Route the rows of `ds` by the integer column `key`, whose values lie
    in [0, parts), so that each key value lands whole in one reduce block;
    then call `fn` once per non-empty block, sorted stably by `order` (see
    the module docstring for the routing rule)."""
    r = predicted_num_blocks(ds)
    if r is None:
        ds = ds.sort(key)
    elif min(r, parts) <= 1:
        ds = ds.repartition(1)
    else:
        r = min(r, parts)
        ds = ds.sort(key, boundaries=[round(i * parts / r) for i in range(1, r)])

    # Ray's batcher drops empty blocks, so a block that no key routed to
    # never reaches fn
    def per_block(tbl: pa.Table) -> pa.Table:
        if order:
            idx = _stable_order(tbl, order)
            if (np.diff(idx) != 1).any():  # no copy for a block already in order
                tbl = tbl.take(pa.array(idx))
        return fn(tbl)

    # the operator is named after fn, as map_groups names it
    per_block.__name__ = fn.__name__
    return ds.map_batches(per_block, batch_format="pyarrow", batch_size=None)
